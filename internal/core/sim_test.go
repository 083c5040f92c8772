package core_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"comic/internal/core"
	"comic/internal/exact"
	"comic/internal/graph"
	"comic/internal/rng"
)

// referenceIC is an independent, straightforward implementation of the
// classic IC model used to validate the Com-IC reduction (§3: with
// q_{A|∅}=q_{A|B}=1 and no B seeds, Com-IC degenerates to IC for A).
func referenceIC(g *graph.Graph, seeds []int32, r *rng.RNG) int {
	active := make([]bool, g.N())
	var frontier []int32
	for _, s := range seeds {
		if !active[s] {
			active[s] = true
			frontier = append(frontier, s)
		}
	}
	count := len(frontier)
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			to, eids := g.OutNeighbors(u)
			for i := range to {
				if !active[to[i]] && r.Bernoulli(g.Prob(eids[i])) {
					active[to[i]] = true
					next = append(next, to[i])
					count++
				}
			}
		}
		frontier = next
	}
	return count
}

func meanSpreadA(sim *core.Simulator, seedsA, seedsB []int32, runs int, seed uint64) float64 {
	total := 0
	for i := 0; i < runs; i++ {
		a, _ := sim.Run(seedsA, seedsB, rng.NewStream(seed, uint64(i)))
		total += a
	}
	return float64(total) / float64(runs)
}

func meanSpreadB(sim *core.Simulator, seedsA, seedsB []int32, runs int, seed uint64) float64 {
	total := 0
	for i := 0; i < runs; i++ {
		_, b := sim.Run(seedsA, seedsB, rng.NewStream(seed, uint64(i)))
		total += b
	}
	return float64(total) / float64(runs)
}

func TestDeterministicFullAdoption(t *testing.T) {
	// Path with p=1 and q_{A|∅}=1: everyone adopts A.
	g := graph.Path(10, 1)
	sim := core.NewSimulator(g, core.GAP{QA0: 1, QAB: 1})
	a, b := sim.Run([]int32{0}, nil, rng.New(1))
	if a != 10 || b != 0 {
		t.Fatalf("a=%d b=%d, want 10,0", a, b)
	}
}

func TestNoSeedsNoSpread(t *testing.T) {
	g := graph.Path(5, 1)
	sim := core.NewSimulator(g, core.GAP{QA0: 1, QAB: 1, QB0: 1, QBA: 1})
	if a, b := sim.Run(nil, nil, rng.New(1)); a != 0 || b != 0 {
		t.Fatalf("no seeds produced spread %d,%d", a, b)
	}
}

func TestSeedsAlwaysAdopt(t *testing.T) {
	// Seeds adopt without testing the NLA even with zero GAPs.
	g := graph.Path(3, 1)
	sim := core.NewSimulator(g, core.GAP{})
	a, b := sim.Run([]int32{1}, []int32{2}, rng.New(1))
	if a != 1 || b != 1 {
		t.Fatalf("a=%d b=%d, want 1,1", a, b)
	}
	if sim.StateOf(1, core.A) != core.Adopted || sim.StateOf(2, core.B) != core.Adopted {
		t.Fatal("seed states wrong")
	}
}

func TestDualSeedAdoptsBoth(t *testing.T) {
	g := graph.Path(2, 1)
	sim := core.NewSimulator(g, core.GAP{})
	a, b := sim.Run([]int32{0}, []int32{0}, rng.New(1))
	if a != 1 || b != 1 {
		t.Fatalf("dual seed adopted a=%d b=%d", a, b)
	}
}

func TestDuplicateSeedsCountedOnce(t *testing.T) {
	g := graph.Path(3, 1)
	sim := core.NewSimulator(g, core.GAP{QA0: 1, QAB: 1, QB0: 1, QBA: 1})
	a, _ := sim.Run([]int32{0, 0, 0}, nil, rng.New(1))
	if a != 3 {
		t.Fatalf("duplicate seeds distorted the count: %d", a)
	}
	_, b := sim.Run(nil, []int32{1, 1}, rng.New(2))
	if b != 2 {
		t.Fatalf("duplicate B seeds distorted the count: %d", b)
	}
}

func TestLazyDeterminismPerSeed(t *testing.T) {
	g := graph.PowerLaw(200, 5, 2.16, true, rng.New(3))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.4, QAB: 0.9, QB0: 0.5, QBA: 0.8}
	s1 := core.NewSimulator(g, gap)
	s2 := core.NewSimulator(g, gap)
	for i := 0; i < 20; i++ {
		a1, b1 := s1.Run([]int32{0, 5}, []int32{7}, rng.NewStream(42, uint64(i)))
		a2, b2 := s2.Run([]int32{0, 5}, []int32{7}, rng.NewStream(42, uint64(i)))
		if a1 != a2 || b1 != b2 {
			t.Fatalf("same stream diverged: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
		}
	}
}

func TestWorldModeDeterministic(t *testing.T) {
	g := graph.PowerLaw(100, 5, 2.16, true, rng.New(3))
	graph.AssignUniform(g, 0.3)
	gap := core.GAP{QA0: 0.4, QAB: 0.9, QB0: 0.5, QBA: 0.8}
	w := core.SampleWorld(g, rng.New(9))
	sim := core.NewSimulator(g, gap)
	sim.SetWorld(w)
	a0, b0 := sim.Run([]int32{1}, []int32{2}, nil)
	adoptedA := append([]int32(nil), sim.AdoptedA()...)
	for i := 0; i < 5; i++ {
		a, b := sim.Run([]int32{1}, []int32{2}, nil)
		if a != a0 || b != b0 {
			t.Fatalf("world mode nondeterministic: (%d,%d) vs (%d,%d)", a, b, a0, b0)
		}
	}
	sort.Slice(adoptedA, func(i, j int) bool { return adoptedA[i] < adoptedA[j] })
	again := append([]int32(nil), sim.AdoptedA()...)
	sort.Slice(again, func(i, j int) bool { return again[i] < again[j] })
	for i := range adoptedA {
		if adoptedA[i] != again[i] {
			t.Fatal("world mode adopted sets differ between runs")
		}
	}
}

func TestICReduction(t *testing.T) {
	// Com-IC with ClassicIC GAPs and S_B = ∅ must match the reference IC
	// simulator in expectation.
	g := graph.PowerLaw(300, 6, 2.16, true, rng.New(5))
	graph.AssignWeightedCascade(g)
	seeds := []int32{0, 1, 2}
	sim := core.NewSimulator(g, core.ClassicIC())
	const runs = 4000
	comMean := meanSpreadA(sim, seeds, nil, runs, 11)
	icTotal := 0
	for i := 0; i < runs; i++ {
		icTotal += referenceIC(g, seeds, rng.NewStream(12, uint64(i)))
	}
	icMean := float64(icTotal) / runs
	if math.Abs(comMean-icMean) > 0.06*icMean+1 {
		t.Fatalf("Com-IC (%v) and IC (%v) disagree", comMean, icMean)
	}
}

func TestTwoInformersAnalytic(t *testing.T) {
	// a --A--> v <--B-- b with all edges live: P(v adopts A) =
	// qA0 + (qAB - qA0) * qB0 in the mutual-complementarity case, by the
	// possible-world argument (independent of tie-break order, Lemma 2).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 2, 1) // a -> v
	b.AddEdge(1, 2, 1) // b -> v
	g := b.MustBuild()
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.6, QBA: 0.9}
	want := gap.QA0 + (gap.QAB-gap.QA0)*gap.QB0

	got, err := exact.AdoptionProbability(g, gap, []int32{0}, []int32{1}, 2, core.A)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("exact P(v adopts A) = %v, want %v", got, want)
	}

	// The Monte-Carlo engine must agree.
	sim := core.NewSimulator(g, gap)
	const runs = 60000
	hits := 0
	for i := 0; i < runs; i++ {
		sim.Run([]int32{0}, []int32{1}, rng.NewStream(21, uint64(i)))
		if sim.StateOf(2, core.A) == core.Adopted {
			hits++
		}
	}
	mc := float64(hits) / runs
	if math.Abs(mc-want) > 0.01 {
		t.Fatalf("MC P(v adopts A) = %v, want %v", mc, want)
	}
}

func TestReconsiderationRequiresSuspension(t *testing.T) {
	// B arrives strictly after v has rejected A (informed while B-adopted):
	// no reconsideration may revive A.
	// Layout: b -> v (B first), then a -> m -> v (A later).
	bld := graph.NewBuilder(4)
	bld.AddEdge(1, 3, 1) // b -> v (B arrives t=1)
	bld.AddEdge(0, 2, 1) // a -> m
	bld.AddEdge(2, 3, 1) // m -> v (A arrives t=2)
	g := bld.MustBuild()
	// qAB = 0: informed of A while B-adopted is always rejected.
	gap := core.GAP{QA0: 0.9, QAB: 0, QB0: 1, QBA: 1}
	p, err := exact.AdoptionProbability(g, gap, []int32{0}, []int32{1}, 3, core.A)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("v adopted A with probability %v despite qAB=0 and B first", p)
	}
}

func TestPathAdoptionProbabilities(t *testing.T) {
	// On a live path seed -> v1 -> v2 with q=q_{A|∅} and no B, P(v_i adopts)
	// = q^i.
	g := graph.Path(4, 1)
	q := 0.5
	gap := core.GAP{QA0: q, QAB: q}
	res, err := exact.New(g, gap).Eval([]int32{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		want := math.Pow(q, float64(i))
		if math.Abs(res.ProbA[i]-want) > 1e-12 {
			t.Fatalf("P(v%d) = %v, want %v", i, res.ProbA[i], want)
		}
	}
	if math.Abs(res.SigmaA-(1+q+q*q+q*q*q)) > 1e-12 {
		t.Fatalf("sigmaA = %v", res.SigmaA)
	}
}

func TestEdgeTestedOnce(t *testing.T) {
	// Once u's channel to v is open, a later adoption by u reuses it.
	// u seeds A at t0 (edge u->v tested), v suspends on A; B reaches u via a
	// path and u adopts B, which must flow through the already-live edge.
	// With p(u,v)=1 this is deterministic; the point is semantic: B's inform
	// arrives even though the edge was first tested for A.
	bld := graph.NewBuilder(4)
	bld.AddEdge(0, 1, 1) // u -> v
	bld.AddEdge(2, 0, 1) // w -> u (B path)
	g := bld.MustBuild()
	gap := core.GAP{QA0: 0.0, QAB: 1, QB0: 1, QBA: 1}
	p, err := exact.AdoptionProbability(g, gap, []int32{0}, []int32{2}, 1, core.A)
	if err != nil {
		t.Fatal(err)
	}
	// v suspends on A (qA0=0), adopts B (qB0=1) when u relays it, then
	// reconsiders A with qAB=1: adoption certain.
	if p != 1 {
		t.Fatalf("P(v adopts A) = %v, want 1", p)
	}
}

// --- Paper appendix counter-examples ---

// example1Graph is Figure 9: edges y->u, u->w, w->v, s1->v, s2->w, all p=1.
// Node ids: v=0, w=1, u=2, y=3, s1=4, s2=5.
func example1Graph() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(3, 2, 1) // y -> u
	b.AddEdge(2, 1, 1) // u -> w
	b.AddEdge(1, 0, 1) // w -> v
	b.AddEdge(4, 0, 1) // s1 -> v
	b.AddEdge(5, 1, 1) // s2 -> w
	return b.MustBuild()
}

func TestExample1NonMonotonicity(t *testing.T) {
	// Example 1 (Appendix A.2): with qA|∅ = q ∈ (0,1), qA|B = qB|∅ = 1,
	// qB|A = 0 and S_B = {y}:
	//   P(v adopts A | S_A = {s1})      = 1
	//   P(v adopts A | S_A = {s1, s2})  = 1 - q + q²  < 1
	g := example1Graph()
	for _, q := range []float64{0.2, 0.5, 0.8} {
		gap := core.GAP{QA0: q, QAB: 1, QB0: 1, QBA: 0}
		p1, err := exact.AdoptionProbability(g, gap, []int32{4}, []int32{3}, 0, core.A)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p1-1) > 1e-12 {
			t.Fatalf("q=%v: P(v|{s1}) = %v, want 1", q, p1)
		}
		p2, err := exact.AdoptionProbability(g, gap, []int32{4, 5}, []int32{3}, 0, core.A)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - q + q*q
		if math.Abs(p2-want) > 1e-12 {
			t.Fatalf("q=%v: P(v|{s1,s2}) = %v, want %v", q, p2, want)
		}
		if p2 >= p1 {
			t.Fatalf("q=%v: expected non-monotonicity, got %v >= %v", q, p2, p1)
		}
	}
}

// example3Graph follows Figure 11 (the figure's precise edges are not in
// the text, so the relay z2 reconstructs the qualitative structure: an
// A-blocking node z on the only w->v channel and a direct informer u):
// x->w, y->w, w->z, z->z2, z2->v, u->v, all p=1.
// Node ids: v=0, z=1, w=2, y=3, u=4, x=5, z2=6.
func example3Graph() *graph.Graph {
	b := graph.NewBuilder(7)
	b.AddEdge(5, 2, 1) // x -> w
	b.AddEdge(3, 2, 1) // y -> w
	b.AddEdge(2, 1, 1) // w -> z
	b.AddEdge(1, 6, 1) // z -> z2
	b.AddEdge(6, 0, 1) // z2 -> v
	b.AddEdge(4, 0, 1) // u -> v
	return b.MustBuild()
}

func TestExample3NonSelfSubmodularity(t *testing.T) {
	// Example 3 (Appendix A.2): self-submodularity fails in Q+. On the
	// reconstructed Figure 11 instance the exact marginal gain of u w.r.t.
	// T = {x} exceeds its gain w.r.t. S = ∅. (The same violation holds with
	// the paper's GAPs {.078432,.24392,.37556,.99545}; the instance below
	// keeps qB|A = 1 so the exact enumeration stays small and fast.)
	g := example3Graph()
	gap := core.GAP{QA0: 0.05, QAB: 0.2, QB0: 0.5, QBA: 1}
	sb := []int32{3} // y
	pv := func(sa []int32) float64 {
		p, err := exact.AdoptionProbability(g, gap, sa, sb, 0, core.A)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pS := pv(nil)
	pSu := pv([]int32{4})
	pT := pv([]int32{5})
	pTu := pv([]int32{5, 4})
	// Exact values independently derived by full possible-world enumeration.
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"pv(empty)", pS, 0},
		{"pv({u})", pSu, 0.059375},
		{"pv({x})", pT, 0.000244140625},
		{"pv({x,u})", pTu, 0.059990234375},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("%s = %.12f, want %.12f", c.name, c.got, c.want)
		}
	}
	if !(pTu-pT > pSu-pS) {
		t.Fatalf("submodularity unexpectedly holds: dT=%v <= dS=%v", pTu-pT, pSu-pS)
	}
}

// example4Graph is the 6-node cross-submodularity counter-example:
// x->w, y->w, w->z, z->v, u->v, all p=1.
// Node ids: v=0, z=1, w=2, y=3, u=4, x=5.
func example4Graph() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(5, 2, 1) // x -> w
	b.AddEdge(3, 2, 1) // y -> w
	b.AddEdge(2, 1, 1) // w -> z
	b.AddEdge(1, 0, 1) // z -> v
	b.AddEdge(4, 0, 1) // u -> v
	return b.MustBuild()
}

func TestExample4NonCrossSubmodularity(t *testing.T) {
	// Example 4 (Appendix A.2): cross-submodularity of sigma_A w.r.t. S_B
	// fails in Q+ when qB|A < 1 (Theorem 5 proves it cannot fail at
	// qB|A = 1). S_A = {y}; B-seed sets S = empty, T = {x}, extra seed u.
	g := example4Graph()
	gap := core.GAP{QA0: 0.1, QAB: 0.9, QB0: 0.4, QBA: 0.5}
	sa := []int32{3}
	pv := func(sbSet []int32) float64 {
		p, err := exact.AdoptionProbability(g, gap, sa, sbSet, 0, core.A)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pS := pv(nil)
	pSu := pv([]int32{4})
	pT := pv([]int32{5})
	pTu := pv([]int32{5, 4})
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"pv(empty)", pS, 0.001},
		{"pv({u})", pSu, 0.0042},
		{"pv({x})", pT, 0.059848},
		{"pv({x,u})", pTu, 0.067368},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("%s = %.12f, want %.12f", c.name, c.got, c.want)
		}
	}
	if !(pTu-pT > pSu-pS) {
		t.Fatalf("cross-submodularity unexpectedly holds: dT=%v <= dS=%v", pTu-pT, pSu-pS)
	}
}

func TestTheorem2CopyingOptimal(t *testing.T) {
	// Theorem 2: with qB|∅ = 1 and k >= |S_A|, setting S_B = S_A (plus
	// arbitrary filler) maximizes the boost. Verify exhaustively on a small
	// branching DAG.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 0.8)
	b.AddEdge(1, 2, 0.8)
	b.AddEdge(2, 4, 0.8)
	b.AddEdge(3, 4, 0.8)
	b.AddEdge(4, 5, 0.8)
	g := b.MustBuild()
	gap := core.GAP{QA0: 0.3, QAB: 0.9, QB0: 1, QBA: 1}
	sa := []int32{0, 3}
	eval := func(sb []int32) float64 {
		s, err := exact.SigmaA(g, gap, sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	copying := eval(sa)
	// All size-2 B-seed sets.
	for x := int32(0); x < 6; x++ {
		for y := x + 1; y < 6; y++ {
			if got := eval([]int32{x, y}); got > copying+1e-9 {
				t.Fatalf("S_B={%d,%d} gives %v > copying %v", x, y, got, copying)
			}
		}
	}
}

func TestLemma2PermutationIrrelevantInQPlus(t *testing.T) {
	// In the mutual complementarity case the tie-breaking permutation does
	// not change any node's final adoption (Lemma 2): rewriting the edge
	// ranks of a sampled world must leave the adopted sets intact.
	gap := core.GAP{QA0: 0.3, QAB: 0.7, QB0: 0.4, QBA: 0.9}
	for trial := 0; trial < 30; trial++ {
		r := rng.New(uint64(1000 + trial))
		g := graph.ErdosRenyi(30, 90, r)
		graph.AssignUniform(g, 0.5)
		w := core.SampleWorld(g, r)
		sim := core.NewSimulator(g, gap)
		sim.SetWorld(w)
		sa, sb := []int32{0, 1}, []int32{2, 3}
		a1, b1 := sim.Run(sa, sb, nil)
		setA := append([]int32(nil), sim.AdoptedA()...)
		// Reverse all tie-break ranks and flip all seed coins.
		for i := range w.EdgeRank {
			w.EdgeRank[i] = -w.EdgeRank[i]
		}
		for i := range w.SeedFirst {
			w.SeedFirst[i] = w.SeedFirst[i].Other()
		}
		a2, b2 := sim.Run(sa, sb, nil)
		if a1 != a2 || b1 != b2 {
			t.Fatalf("trial %d: permutation changed spreads (%d,%d) -> (%d,%d)", trial, a1, b1, a2, b2)
		}
		setA2 := append([]int32(nil), sim.AdoptedA()...)
		sort.Slice(setA, func(i, j int) bool { return setA[i] < setA[j] })
		sort.Slice(setA2, func(i, j int) bool { return setA2[i] < setA2[j] })
		for i := range setA {
			if setA[i] != setA2[i] {
				t.Fatalf("trial %d: adopted-A sets differ", trial)
			}
		}
	}
}

func TestLemma3BIndependentOfA(t *testing.T) {
	// When q_{B|∅} = q_{B|A}, the set of B-adopted nodes is independent of
	// the A-seed set (Lemma 3), world by world.
	gap := core.GAP{QA0: 0.2, QAB: 0.9, QB0: 0.5, QBA: 0.5}
	for trial := 0; trial < 30; trial++ {
		r := rng.New(uint64(2000 + trial))
		g := graph.ErdosRenyi(25, 80, r)
		graph.AssignUniform(g, 0.6)
		w := core.SampleWorld(g, r)
		sim := core.NewSimulator(g, gap)
		sim.SetWorld(w)
		sb := []int32{0, 1}
		_, b1 := sim.Run(nil, sb, nil)
		setB1 := append([]int32(nil), sim.AdoptedB()...)
		_, b2 := sim.Run([]int32{5, 6, 7}, sb, nil)
		setB2 := append([]int32(nil), sim.AdoptedB()...)
		if b1 != b2 {
			t.Fatalf("trial %d: B-spread changed with A seeds: %d vs %d", trial, b1, b2)
		}
		sort.Slice(setB1, func(i, j int) bool { return setB1[i] < setB1[j] })
		sort.Slice(setB2, func(i, j int) bool { return setB2[i] < setB2[j] })
		for i := range setB1 {
			if setB1[i] != setB2[i] {
				t.Fatalf("trial %d: B-adopted sets differ", trial)
			}
		}
	}
}

func adoptedSet(sim *core.Simulator, item core.Item) map[int32]bool {
	var nodes []int32
	if item == core.A {
		nodes = sim.AdoptedA()
	} else {
		nodes = sim.AdoptedB()
	}
	m := make(map[int32]bool, len(nodes))
	for _, v := range nodes {
		m[v] = true
	}
	return m
}

func TestTheorem3MonotonicityInWorlds(t *testing.T) {
	// Self-monotonicity for Q+ and Q-; cross-monotonicity up for Q+, down
	// for Q-. Verified world by world (the proof's own granularity).
	cases := []struct {
		name string
		gap  core.GAP
		up   bool // σ_A increases with S_B
	}{
		{"Q+", core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}, true},
		{"Q-", core.GAP{QA0: 0.8, QAB: 0.3, QB0: 0.9, QBA: 0.4}, false},
	}
	for _, tc := range cases {
		for trial := 0; trial < 25; trial++ {
			r := rng.New(uint64(3000 + trial))
			g := graph.ErdosRenyi(25, 80, r)
			graph.AssignUniform(g, 0.6)
			w := core.SampleWorld(g, r)
			sim := core.NewSimulator(g, tc.gap)
			sim.SetWorld(w)
			sb := []int32{2, 3}
			sim.Run([]int32{0}, sb, nil)
			small := adoptedSet(sim, core.A)
			sim.Run([]int32{0, 1}, sb, nil)
			large := adoptedSet(sim, core.A)
			for v := range small {
				if !large[v] {
					t.Fatalf("%s trial %d: self-monotonicity violated at node %d", tc.name, trial, v)
				}
			}
			// Cross-monotonicity.
			sim.Run([]int32{0}, sb, nil)
			base := adoptedSet(sim, core.A)
			sim.Run([]int32{0}, append(append([]int32(nil), sb...), 4), nil)
			grown := adoptedSet(sim, core.A)
			if tc.up {
				for v := range base {
					if !grown[v] {
						t.Fatalf("%s trial %d: cross-monotonicity (up) violated at %d", tc.name, trial, v)
					}
				}
			} else {
				for v := range grown {
					if !base[v] {
						t.Fatalf("%s trial %d: cross-monotonicity (down) violated at %d", tc.name, trial, v)
					}
				}
			}
		}
	}
}

func TestQuickUnreachableStates(t *testing.T) {
	// Appendix A.1: five joint states are unreachable from (A-idle, B-idle).
	f := func(seed uint64, qa0, qab, qb0, qba uint8) bool {
		r := rng.New(seed)
		g := graph.ErdosRenyi(20, 60, r)
		graph.AssignUniform(g, 0.7)
		gap := core.GAP{
			QA0: float64(qa0%101) / 100, QAB: float64(qab%101) / 100,
			QB0: float64(qb0%101) / 100, QBA: float64(qba%101) / 100,
		}
		sim := core.NewSimulator(g, gap)
		sim.Run([]int32{0, 1}, []int32{2, 3}, r)
		return sim.CheckReachableStates() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLemma1LazyVersusWorldDistribution(t *testing.T) {
	// Lemma 1: lazy Com-IC runs and deterministic cascades over sampled
	// worlds induce the same distribution. Compare mean spreads.
	g := graph.ErdosRenyi(40, 160, rng.New(41))
	graph.AssignUniform(g, 0.4)
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.9}
	sa, sb := []int32{0, 1}, []int32{2, 3}
	const runs = 20000

	sim := core.NewSimulator(g, gap)
	lazyA := meanSpreadA(sim, sa, sb, runs, 51)
	lazyB := meanSpreadB(sim, sa, sb, runs, 52)

	totalA, totalB := 0, 0
	wsim := core.NewSimulator(g, gap)
	for i := 0; i < runs; i++ {
		w := core.SampleWorld(g, rng.NewStream(53, uint64(i)))
		wsim.SetWorld(w)
		a, b := wsim.Run(sa, sb, nil)
		totalA += a
		totalB += b
	}
	worldA := float64(totalA) / runs
	worldB := float64(totalB) / runs

	if math.Abs(lazyA-worldA) > 0.35 {
		t.Fatalf("A-spread: lazy %v vs world %v", lazyA, worldA)
	}
	if math.Abs(lazyB-worldB) > 0.35 {
		t.Fatalf("B-spread: lazy %v vs world %v", lazyB, worldB)
	}
}

func TestExactMatchesMonteCarlo(t *testing.T) {
	// The exact enumerator and the lazy engine agree on random small
	// instances with arbitrary GAPs (including competitive ones where the
	// tie-break permutations matter).
	for trial := 0; trial < 3; trial++ {
		r := rng.New(uint64(6000 + trial))
		g := graph.ErdosRenyi(5, 4, r)
		graph.AssignUniform(g, 0.6)
		gap := core.GAP{
			QA0: r.Float64(), QAB: r.Float64(),
			QB0: r.Float64(), QBA: r.Float64(),
		}
		res, err := exact.New(g, gap).Eval([]int32{0}, []int32{1})
		if err != nil {
			t.Fatal(err)
		}
		sim := core.NewSimulator(g, gap)
		const runs = 40000
		totalA, totalB := 0, 0
		for i := 0; i < runs; i++ {
			a, b := sim.Run([]int32{0}, []int32{1}, rng.NewStream(uint64(7000+trial), uint64(i)))
			totalA += a
			totalB += b
		}
		mcA := float64(totalA) / runs
		mcB := float64(totalB) / runs
		if math.Abs(mcA-res.SigmaA) > 0.12 {
			t.Fatalf("trial %d: σA exact %v vs MC %v (gap %+v)", trial, res.SigmaA, mcA, gap)
		}
		if math.Abs(mcB-res.SigmaB) > 0.12 {
			t.Fatalf("trial %d: σB exact %v vs MC %v", trial, res.SigmaB, mcB)
		}
	}
}

func TestTraceTimes(t *testing.T) {
	g := graph.Path(5, 1)
	sim := core.NewSimulator(g, core.GAP{QA0: 1, QAB: 1})
	tr := sim.RunTrace([]int32{0}, nil, rng.New(1))
	for i := int32(0); i < 5; i++ {
		if tr.AdoptTimeA[i] != i {
			t.Fatalf("node %d adopted at %d, want %d", i, tr.AdoptTimeA[i], i)
		}
		if tr.InformTimeA[i] != i {
			t.Fatalf("node %d informed at %d, want %d", i, tr.InformTimeA[i], i)
		}
		if !tr.Informed(i, core.A) {
			t.Fatalf("node %d not marked informed", i)
		}
	}
	if tr.CountA != 5 || tr.CountB != 0 {
		t.Fatalf("trace counts %d/%d", tr.CountA, tr.CountB)
	}
	if tr.Informed(0, core.B) || tr.AdoptTimeB[2] != -1 {
		t.Fatal("spurious B events in trace")
	}
}

func TestTraceInformWithoutAdoption(t *testing.T) {
	g := graph.Path(2, 1)
	sim := core.NewSimulator(g, core.GAP{QA0: 0, QAB: 0})
	tr := sim.RunTrace([]int32{0}, nil, rng.New(1))
	if !tr.Informed(1, core.A) {
		t.Fatal("node 1 should be informed")
	}
	if tr.StateA[1] != core.Suspended {
		t.Fatalf("node 1 state %v, want suspended", tr.StateA[1])
	}
	if tr.AdoptTimeA[1] != -1 {
		t.Fatal("node 1 must not have an adoption time")
	}
}

func TestAdoptionSequenceOrder(t *testing.T) {
	// A node that adopts B then reconsiders A must carry B's sequence
	// number first.
	bld := graph.NewBuilder(3)
	bld.AddEdge(0, 2, 1)
	bld.AddEdge(1, 2, 1)
	g := bld.MustBuild()
	gap := core.GAP{QA0: 0, QAB: 1, QB0: 1, QBA: 1}
	sim := core.NewSimulator(g, gap)
	tr := sim.RunTrace([]int32{0}, []int32{1}, rng.New(3))
	if tr.StateA[2] != core.Adopted || tr.StateB[2] != core.Adopted {
		t.Fatalf("node 2 states %v/%v", tr.StateA[2], tr.StateB[2])
	}
	if tr.AdoptSeqB[2] >= tr.AdoptSeqA[2] {
		t.Fatalf("reconsideration order wrong: seqB=%d seqA=%d", tr.AdoptSeqB[2], tr.AdoptSeqA[2])
	}
}

// TestSetWorldRejectsMismatchedWorld pins SetWorld's size check. A world
// sampled for a larger graph would otherwise run silently on the wrong
// draws, and one sampled for a smaller graph would fail deep inside Run
// with a bare index-out-of-range error.
func TestSetWorldRejectsMismatchedWorld(t *testing.T) {
	g := graph.Path(5, 0.5)
	sim := core.NewSimulator(g, core.GAP{QA0: 0.5, QAB: 0.5, QB0: 0.5, QBA: 0.5})
	sim.SetWorld(core.SampleWorld(g, rng.New(1)))
	mustReject := func(what string, w *core.World) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "world was not sampled for this graph") {
				t.Errorf("%s: SetWorld panic = %q, want a world/graph mismatch", what, msg)
			}
		}()
		sim.SetWorld(w)
	}
	mustReject("larger graph", core.SampleWorld(graph.Path(8, 0.5), rng.New(2)))
	mustReject("smaller graph", core.SampleWorld(graph.Path(3, 0.5), rng.New(3)))
	for _, short := range []struct {
		field string
		cut   func(w *core.World)
	}{
		{"EdgeLive", func(w *core.World) { w.EdgeLive = w.EdgeLive[:1] }},
		{"EdgeRank", func(w *core.World) { w.EdgeRank = w.EdgeRank[:1] }},
		{"AlphaA", func(w *core.World) { w.AlphaA = w.AlphaA[:1] }},
		{"AlphaB", func(w *core.World) { w.AlphaB = w.AlphaB[:1] }},
		{"SeedFirst", func(w *core.World) { w.SeedFirst = w.SeedFirst[:1] }},
	} {
		w := core.SampleWorld(g, rng.New(4))
		short.cut(w)
		mustReject("short "+short.field, w)
	}
}

// TestWorldResampleMatchesSampleWorld pins Resample to SampleWorld: a world
// redrawn in place, after it was last used for a larger graph and after it
// was last used for a smaller one, must equal a fresh SampleWorld field for
// field and leave the RNG where SampleWorld leaves it.
func TestWorldResampleMatchesSampleWorld(t *testing.T) {
	small := graph.PowerLaw(40, 4, 2.16, true, rng.New(1))
	mid := graph.PowerLaw(120, 6, 2.16, true, rng.New(2))
	large := graph.PowerLaw(300, 8, 2.16, true, rng.New(3))
	for _, g := range []*graph.Graph{small, mid, large} {
		graph.AssignWeightedCascade(g)
	}
	w := core.SampleWorld(large, rng.New(4))
	for step, g := range []*graph.Graph{mid, small, mid, large} {
		seed := uint64(10 + step)
		r := rng.New(seed)
		w.Resample(g, r)
		fresh := rng.New(seed)
		want := core.SampleWorld(g, fresh)
		if !reflect.DeepEqual(w, want) {
			t.Fatalf("step %d (n=%d): resampled world differs from SampleWorld", step, g.N())
		}
		if got, next := r.Uint64(), fresh.Uint64(); got != next {
			t.Fatalf("step %d (n=%d): next draw after Resample %#x, after SampleWorld %#x", step, g.N(), got, next)
		}
	}
}

func TestLazyRunRequiresRNG(t *testing.T) {
	g := graph.Path(2, 1)
	sim := core.NewSimulator(g, core.GAP{})
	defer func() {
		if recover() == nil {
			t.Fatal("lazy Run(nil RNG) did not panic")
		}
	}()
	sim.Run([]int32{0}, nil, nil)
}

func TestWorldEquivalence(t *testing.T) {
	g := graph.Path(4, 0.5)
	gap := core.GAP{QA0: 0.3, QAB: 0.7, QB0: 0.2, QBA: 0.6}
	w1 := core.SampleWorld(g, rng.New(1))
	w2 := &core.World{
		EdgeLive:  append([]bool(nil), w1.EdgeLive...),
		AlphaA:    append([]float64(nil), w1.AlphaA...),
		AlphaB:    append([]float64(nil), w1.AlphaB...),
		EdgeRank:  append([]float64(nil), w1.EdgeRank...),
		SeedFirst: append([]core.Item(nil), w1.SeedFirst...),
	}
	if !w1.EquivalentUnder(w2, gap) {
		t.Fatal("identical worlds not equivalent")
	}
	// Move an alpha within its range: still equivalent.
	w2.AlphaA[0] = w1.AlphaA[0] // unchanged
	if !w1.EquivalentUnder(w2, gap) {
		t.Fatal("unchanged world not equivalent")
	}
	// Flip an edge: not equivalent.
	w2.EdgeLive[0] = !w2.EdgeLive[0]
	if w1.EquivalentUnder(w2, gap) {
		t.Fatal("edge-flipped world reported equivalent")
	}
}

// goldenDigest folds simulator outputs into an FNV-64a hash.
type goldenDigest struct {
	h   hash.Hash64
	buf []byte
}

func (d *goldenDigest) int(x int64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], uint64(x))
	d.h.Write(d.buf)
}

func (d *goldenDigest) int32s(xs []int32) {
	d.int(int64(len(xs)))
	for _, x := range xs {
		d.int(int64(x))
	}
}

func (d *goldenDigest) states(xs []core.State) {
	d.int(int64(len(xs)))
	for _, x := range xs {
		d.int(int64(x))
	}
}

// run folds one run's counts and adoption lists, in adoption order.
func (d *goldenDigest) run(sim *core.Simulator, ca, cb int) {
	d.int(int64(ca))
	d.int(int64(cb))
	d.int32s(sim.AdoptedA())
	d.int32s(sim.AdoptedB())
}

// trace folds every field of tr.
func (d *goldenDigest) trace(tr *core.Trace) {
	d.states(tr.StateA)
	d.states(tr.StateB)
	for _, xs := range [][]int32{
		tr.InformTimeA, tr.AdoptTimeA, tr.InformTimeB, tr.AdoptTimeB,
		tr.AdoptSeqA, tr.AdoptSeqB,
		tr.InformEvA, tr.AdoptEvA, tr.InformEvB, tr.AdoptEvB,
	} {
		d.int32s(xs)
	}
	d.int(int64(tr.CountA))
	d.int(int64(tr.CountB))
}

// TestSimulatorGolden pins the exact output of the diffusion kernel: the
// counts and adoption order of 300 lazy runs and 300 world runs, plus every
// field of one traced run, folded into one FNV-64a digest per row. Rows
// cover each GAP regime, and dual and duplicate seeds; each row names its
// own stream seed. A refactor of the kernel must draw the same random
// numbers in the same order and process informs in the same order, so these
// digests must not move; a change that moves them is a re-baseline and must
// say so.
func TestSimulatorGolden(t *testing.T) {
	g := graph.PowerLaw(300, 8, 2.16, true, rng.New(11))
	graph.AssignWeightedCascade(g)
	qplus := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}
	seedsA, seedsB := []int32{0, 3, 5, 40}, []int32{1, 2, 7, 90}
	rows := []struct {
		name           string
		gap            core.GAP
		seedsA, seedsB []int32
		seed           uint64
		want           uint64
	}{
		{name: "Q+", gap: qplus, seedsA: seedsA, seedsB: seedsB, seed: 100, want: 0x830e3c9890db4114},
		{name: "competition", gap: core.GAP{QA0: 0.8, QAB: 0.2, QB0: 0.7, QBA: 0.3},
			seedsA: seedsA, seedsB: seedsB, seed: 101, want: 0x40205d2461391130},
		{name: "one-way", gap: core.GAP{QA0: 0.3, QAB: 0.9, QB0: 0.5, QBA: 0.5},
			seedsA: seedsA, seedsB: seedsB, seed: 102, want: 0x9bc6eb33894fdd71},
		{name: "indifferent", gap: core.GAP{QA0: 0.6, QAB: 0.6, QB0: 0.4, QBA: 0.4},
			seedsA: seedsA, seedsB: seedsB, seed: 103, want: 0x6e7ba2681b1ab252},
		{name: "dual and duplicate seeds", gap: qplus,
			seedsA: []int32{0, 4, 4, 9, 1, 0}, seedsB: []int32{9, 1, 1, 6, 4}, seed: 106, want: 0x2d716b94af5fe316},
	}
	const runs = 300
	for _, row := range rows {
		sim := core.NewSimulator(g, row.gap)
		d := goldenDigest{h: fnv.New64a()}
		for i := 0; i < runs; i++ {
			ca, cb := sim.Run(row.seedsA, row.seedsB, rng.NewStream(row.seed, uint64(i)))
			d.run(sim, ca, cb)
		}
		for i := 0; i < runs; i++ {
			sim.SetWorld(core.SampleWorld(g, rng.NewStream(row.seed+1000, uint64(i))))
			ca, cb := sim.Run(row.seedsA, row.seedsB, nil)
			d.run(sim, ca, cb)
		}
		sim.SetWorld(nil)
		d.trace(sim.RunTrace(row.seedsA, row.seedsB, rng.NewStream(row.seed, runs)))
		if got := d.h.Sum64(); got != row.want {
			t.Errorf("%s: digest %#x, want %#x", row.name, got, row.want)
		}
	}
}

// TestSameRunsMatchesRun checks core.SameRuns against Run itself, over 300
// stream-seeded runs in lazy mode and in world mode. Moving non-dual A-seeds or repeating an
// A-seed leaves every run's counts and final states unchanged, and SameRuns
// says so. Swapping the two dual seeds makes SameRuns false, changes at
// least one lazy run (their seed coins trade places), and changes no world
// run (a world fixes each node's coin).
func TestSameRunsMatchesRun(t *testing.T) {
	g := graph.ErdosRenyi(60, 300, rng.New(23))
	graph.AssignUniform(g, 0.4)
	competition := core.GAP{QA0: 0.8, QAB: 0.2, QB0: 0.7, QBA: 0.3}
	seedsB := []int32{2, 4, 30}
	seedsA := []int32{10, 2, 11, 4, 12} // dual seeds 2, then 4
	same := []struct {
		name  string
		seeds []int32
	}{
		{"permuted", []int32{12, 2, 4, 10, 11}},
		{"repeated", []int32{10, 2, 11, 2, 4, 12, 10}},
		{"reordered", []int32{2, 12, 11, 4, 10}},
	}
	swapped := []int32{10, 4, 11, 2, 12}
	for _, c := range same {
		if !core.SameRuns(seedsA, c.seeds, seedsB) {
			t.Errorf("SameRuns(%v, %s %v) = false", seedsA, c.name, c.seeds)
		}
	}
	if core.SameRuns(seedsA, swapped, seedsB) {
		t.Errorf("SameRuns(%v, swapped %v) = true", seedsA, swapped)
	}
	if core.SameRuns(seedsA, seedsA[:4], seedsB) {
		t.Errorf("SameRuns(%v, %v) = true for different node sets", seedsA, seedsA[:4])
	}

	type outcome struct {
		ca, cb int
		states []core.State
	}
	modes := []struct {
		name  string
		world bool
	}{
		{name: "lazy"},
		{name: "world", world: true},
	}
	for _, m := range modes {
		sim := core.NewSimulator(g, competition)
		var w core.World
		runs := func(seedsA []int32) []outcome {
			out := make([]outcome, 300)
			for i := range out {
				r := rng.NewStream(77, uint64(i))
				if m.world {
					w.Resample(g, r)
					sim.SetWorld(&w)
					r = nil
				}
				o := &out[i]
				o.ca, o.cb = sim.Run(seedsA, seedsB, r)
				for v := int32(0); v < int32(g.N()); v++ {
					o.states = append(o.states, sim.StateOf(v, core.A), sim.StateOf(v, core.B))
				}
			}
			return out
		}
		base := runs(seedsA)
		for _, c := range same {
			if !reflect.DeepEqual(runs(c.seeds), base) {
				t.Errorf("%s: %s A-seeds %v changed a run", m.name, c.name, c.seeds)
			}
		}
		if changed := !reflect.DeepEqual(runs(swapped), base); changed != !m.world {
			t.Errorf("%s: swapping the dual seeds changed a run: %v, want %v", m.name, changed, !m.world)
		}
	}
}

func BenchmarkDiffusionLazy(b *testing.B) {
	g := graph.PowerLaw(10000, 10, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.4, QAB: 0.9, QB0: 0.5, QBA: 0.8}
	sim := core.NewSimulator(g, gap)
	seedsA := []int32{0, 1, 2, 3, 4}
	seedsB := []int32{5, 6, 7, 8, 9}
	r := new(rng.RNG)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ReseedStream(9, uint64(i))
		sim.Run(seedsA, seedsB, r)
	}
}

func BenchmarkDiffusionWorld(b *testing.B) {
	g := graph.PowerLaw(10000, 10, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.4, QAB: 0.9, QB0: 0.5, QBA: 0.8}
	sim := core.NewSimulator(g, gap)
	w := core.SampleWorld(g, rng.New(2))
	sim.SetWorld(w)
	seedsA := []int32{0, 1, 2, 3, 4}
	seedsB := []int32{5, 6, 7, 8, 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(seedsA, seedsB, nil)
	}
}
