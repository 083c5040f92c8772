package multi

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

func TestGAPTableValidation(t *testing.T) {
	if _, err := NewGAPTable(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewGAPTable(MaxItems + 1); err == nil {
		t.Fatal("k too large accepted")
	}
	tab, err := NewGAPTable(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Set(0, 1, 0.5); err == nil {
		t.Fatal("own-bit mask accepted")
	}
	if err := tab.Set(0, 8, 0.5); err == nil {
		t.Fatal("out-of-range mask accepted")
	}
	if err := tab.Set(0, 2, 1.5); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := tab.Set(0, 2, 0.7); err != nil {
		t.Fatal(err)
	}
	if tab.Get(0, 2) != 0.7 {
		t.Fatal("Get after Set failed")
	}
	// Own bit ignored on Get.
	if tab.Get(0, 3) != 0.7 {
		t.Fatal("Get must mask out the item's own bit")
	}
}

func TestParamCount(t *testing.T) {
	// §8: k items need k * 2^(k-1) parameters.
	for k, want := range map[int]int{1: 1, 2: 4, 3: 12, 4: 32} {
		tab, err := NewGAPTable(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.ParamCount(); got != want {
			t.Fatalf("k=%d: ParamCount=%d, want %d", k, got, want)
		}
	}
}

func TestFromPairGAP(t *testing.T) {
	gap := core.GAP{QA0: 0.1, QAB: 0.2, QB0: 0.3, QBA: 0.4}
	tab := FromPairGAP(gap)
	if tab.Get(0, 0) != 0.1 || tab.Get(0, 2) != 0.2 {
		t.Fatal("A GAPs mapped wrong")
	}
	if tab.Get(1, 0) != 0.3 || tab.Get(1, 1) != 0.4 {
		t.Fatal("B GAPs mapped wrong")
	}
}

func TestTwoItemMatchesCore(t *testing.T) {
	// The k=2 instantiation must reproduce the core engine's spread
	// distribution (disjoint seed sets, so the shared seed-order
	// simplification is irrelevant).
	g := graph.PowerLaw(400, 6, 2.16, true, rng.New(5))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}
	tab := FromPairGAP(gap)

	seedsA := []int32{0, 1, 2}
	seedsB := []int32{3, 4, 5}
	const runs = 8000

	msim := NewSimulator(g, tab)
	var mA, mB float64
	for i := 0; i < runs; i++ {
		counts := msim.Run([][]int32{seedsA, seedsB}, rng.NewStream(9, uint64(i)))
		mA += float64(counts[0])
		mB += float64(counts[1])
	}
	mA /= runs
	mB /= runs

	csim := core.NewSimulator(g, gap)
	var cA, cB float64
	for i := 0; i < runs; i++ {
		a, b := csim.Run(seedsA, seedsB, rng.NewStream(10, uint64(i)))
		cA += float64(a)
		cB += float64(b)
	}
	cA /= runs
	cB /= runs

	if math.Abs(mA-cA) > 0.05*cA+0.5 {
		t.Fatalf("A-spread: multi %v vs core %v", mA, cA)
	}
	if math.Abs(mB-cB) > 0.05*cB+0.5 {
		t.Fatalf("B-spread: multi %v vs core %v", mB, cB)
	}
}

func TestThreeItemPerfectComplement(t *testing.T) {
	// Item 2 adoptable only when BOTH 0 and 1 are adopted (a three-way
	// bundle): on a path where items 0 and 1 flow from the two ends, item 2
	// is adopted exactly where both meet.
	g := graph.Path(5, 1)
	tab, err := NewGAPTable(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.SetAll(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetAll(1, 1); err != nil {
		t.Fatal(err)
	}
	// Item 2: q = 0 unless mask contains both 0 and 1 (mask 3).
	if err := tab.Set(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(g, tab)
	// Item 0 seeded at node 0 (flows down the path), item 1 everywhere
	// via seeds, item 2 seeded at node 0.
	counts := sim.Run([][]int32{{0}, {0, 1, 2, 3, 4}, {0}}, rng.New(3))
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("items 0/1 should blanket the path: %v", counts)
	}
	if counts[2] != 5 {
		t.Fatalf("item 2 should follow once 0 and 1 are adopted: %v", counts)
	}
	// Without item 1 anywhere, item 2 cannot move beyond its seed.
	counts = sim.Run([][]int32{{0}, nil, {0}}, rng.New(4))
	if counts[2] != 1 {
		t.Fatalf("item 2 spread without its complements: %v", counts)
	}
}

func TestThreeItemCompetitionChain(t *testing.T) {
	// Item 1 is blocked by item 0 (q_{1|{0}} = 0): when item 0 blankets
	// the graph first (seeded everywhere), item 1 cannot spread at all.
	g := graph.Path(4, 1)
	tab, err := NewGAPTable(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.SetAll(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetAll(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Set(1, 1, 0); err != nil { // q_{1|{0}} = 0
		t.Fatal(err)
	}
	if err := tab.Set(1, 5, 0); err != nil { // q_{1|{0,2}} = 0
		t.Fatal(err)
	}
	sim := NewSimulator(g, tab)
	counts := sim.Run([][]int32{{0, 1, 2, 3}, {0}, nil}, rng.New(5))
	if counts[0] != 4 {
		t.Fatalf("item 0 should blanket: %v", counts)
	}
	if counts[1] != 1 {
		t.Fatalf("item 1 should be stuck at its seed: %v", counts)
	}
}

func TestAdoptedMask(t *testing.T) {
	g := graph.Path(2, 1)
	tab := FromPairGAP(core.GAP{QA0: 1, QAB: 1, QB0: 1, QBA: 1})
	sim := NewSimulator(g, tab)
	sim.Run([][]int32{{0}, {0}}, rng.New(1))
	if sim.AdoptedMask(0) != 3 || sim.AdoptedMask(1) != 3 {
		t.Fatalf("masks: %b %b", sim.AdoptedMask(0), sim.AdoptedMask(1))
	}
}

func TestRunPanicsOnWrongSeedSets(t *testing.T) {
	g := graph.Path(2, 1)
	tab := FromPairGAP(core.GAP{})
	sim := NewSimulator(g, tab)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong seed-set count did not panic")
		}
	}()
	sim.Run([][]int32{{0}}, rng.New(1))
}

// TestSimulatorEpochWrap runs the simulator's node stamps across their
// 2^32 wrap. A run at epoch 1 stamps the seeds and the nodes they reach;
// the two runs just below the wrap start from another seed. After the
// wrap, every run's counts and adoption masks must equal a fresh
// simulator's on the same stream.
func TestSimulatorEpochWrap(t *testing.T) {
	g := graph.ErdosRenyi(40, 200, rng.New(3))
	graph.AssignUniform(g, 0.3)
	tab := FromPairGAP(core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9})
	outcome := func(s *Simulator, seeds [][]int32, r *rng.RNG) []int {
		out := append([]int(nil), s.Run(seeds, r)...)
		for v := int32(0); v < int32(g.N()); v++ {
			out = append(out, int(s.AdoptedMask(v)))
		}
		return out
	}
	seeds := [][]int32{{0, 1, 2}, {2, 3}}
	sim := NewSimulator(g, tab)
	outcome(sim, seeds, rng.NewStream(5, 0))
	sim.epoch = math.MaxUint32 - 2
	for run := uint64(0); run < 6; run++ {
		s := seeds
		if run < 2 {
			s = [][]int32{{20}, nil}
		}
		want := outcome(NewSimulator(g, tab), s, rng.NewStream(7, run))
		if got := outcome(sim, s, rng.NewStream(7, run)); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (epoch %d): %v, want %v", run, sim.epoch, got, want)
		}
	}
	if sim.epoch != 4 {
		t.Fatalf("epoch %d after the wrap, want 4", sim.epoch)
	}
}

// TestRunAllocs: once a run has grown its scratch buffers, the simulator
// allocates nothing per run, as core.Simulator does not.
func TestRunAllocs(t *testing.T) {
	g := graph.PowerLaw(2000, 8, 2.16, true, rng.New(4))
	graph.AssignWeightedCascade(g)
	sim := NewSimulator(g, FromPairGAP(core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}))
	seeds := [][]int32{{0, 1, 2, 3, 4}, {3, 4, 5, 6, 7}}
	var r rng.RNG
	run := func() {
		r.ReseedStream(3, 0)
		sim.Run(seeds, &r)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("%v allocations per run, want 0", allocs)
	}
}

// TestMultiGolden pins the exact output of the k-item simulator: the counts
// and every node's AdoptedMask after each of 300 stream-seeded runs of a
// 3-item table, folded into one FNV-64a digest. The seed sets share nodes,
// so each run's item-order Perm decides which item such a node adopts
// first. A refactor of the simulator must draw the same random numbers in
// the same order and process informs in the same order, so the digest must
// not move; a change that moves it is a re-baseline and must say so.
func TestMultiGolden(t *testing.T) {
	g := graph.PowerLaw(300, 8, 2.16, true, rng.New(11))
	graph.AssignWeightedCascade(g)
	tab, err := NewGAPTable(3)
	if err != nil {
		t.Fatal(err)
	}
	// q[i][mask] for masks ∅, {a}, {b}, {a,b} of the two other items a < b:
	// item 0 complements item 1 and competes with item 2.
	q := [3][4]float64{
		{0.3, 0.8, 0.1, 0.5},
		{0.4, 0.9, 0.6, 0.7},
		{0.5, 0.2, 0.5, 0.3},
	}
	for i := 0; i < 3; i++ {
		a, b := uint32(1)<<((i+1)%3), uint32(1)<<((i+2)%3)
		if a > b {
			a, b = b, a
		}
		for j, mask := range []uint32{0, a, b, a | b} {
			if err := tab.Set(i, mask, q[i][j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Nodes 0, 3, 5 and 7 each seed two items.
	seeds := [][]int32{{0, 3, 5, 40}, {1, 3, 7, 90}, {5, 7, 11, 0}}
	sim := NewSimulator(g, tab)
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i := 0; i < 300; i++ {
		for _, c := range sim.Run(seeds, rng.NewStream(21, uint64(i))) {
			put(uint64(c))
		}
		for v := int32(0); v < int32(g.N()); v++ {
			put(uint64(sim.AdoptedMask(v)))
		}
	}
	const want = 0xeaf9a0fc265035c1
	if got := h.Sum64(); got != want {
		t.Errorf("digest %#x, want %#x", got, uint64(want))
	}
}
