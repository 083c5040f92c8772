package rrset

import (
	"math"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"comic/internal/core"
	"comic/internal/exact"
	"comic/internal/graph"
	"comic/internal/montecarlo"
	"comic/internal/rng"
)

// sortedNodes returns a sorted copy of an RR set's nodes.
func sortedNodes(s *RRSet) []int32 {
	out := append([]int32(nil), s.Nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func setsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// selectMaxCoverage selects k seeds through SelectSeeds from hand-built
// sets over n nodes, and returns them with the number of sets they cover.
func selectMaxCoverage(sets []RRSet, n, k int) ([]int32, int) {
	col := collectionFromSets(sets, n)
	seeds, st := SelectSeeds(col, k)
	return seeds, int(math.Round(st.Coverage * float64(col.Len())))
}

// bruteForceSelfRR computes RR(root) for SelfInfMax by Definition 1: run
// the deterministic cascade with every singleton A-seed in the world.
func bruteForceSelfRR(g *graph.Graph, gap core.GAP, w *core.World, seedsB []int32, root int32) []int32 {
	sim := core.NewSimulator(g, gap)
	sim.SetWorld(w)
	var out []int32
	for u := int32(0); u < int32(g.N()); u++ {
		sim.Run([]int32{u}, seedsB, nil)
		if sim.StateOf(root, core.A) == core.Adopted {
			out = append(out, u)
		}
	}
	return out
}

// bruteForceCompRR computes RR(root) for CompInfMax by Definition 1: root
// must flip from not-A-adopted (S_B = ∅) to A-adopted (S_B = {u}).
func bruteForceCompRR(g *graph.Graph, gap core.GAP, w *core.World, seedsA []int32, root int32) []int32 {
	sim := core.NewSimulator(g, gap)
	sim.SetWorld(w)
	sim.Run(seedsA, nil, nil)
	if sim.StateOf(root, core.A) == core.Adopted {
		return nil
	}
	var out []int32
	for u := int32(0); u < int32(g.N()); u++ {
		sim.Run(seedsA, []int32{u}, nil)
		if sim.StateOf(root, core.A) == core.Adopted {
			out = append(out, u)
		}
	}
	return out
}

func randomGraphWorld(seed uint64, n, m int, p float64) (*graph.Graph, *core.World, *rng.RNG) {
	r := rng.New(seed)
	g := graph.ErdosRenyi(n, m, r)
	graph.AssignUniform(g, p)
	w := core.SampleWorld(g, r)
	return g, w, r
}

func TestICBruteForce(t *testing.T) {
	// For IC RR sets: u ∈ RR(v) iff v is forward-reachable from u over
	// live edges.
	for trial := 0; trial < 40; trial++ {
		g, w, r := randomGraphWorld(uint64(100+trial), 20, 60, 0.5)
		gen := NewIC(g)
		gen.SetWorld(w)
		root := int32(r.Intn(g.N()))
		var set RRSet
		gen.Generate(root, rng.New(1), &set)
		got := sortedNodes(&set)

		var want []int32
		sim := core.NewSimulator(g, core.ClassicIC())
		sim.SetWorld(w)
		for u := int32(0); u < int32(g.N()); u++ {
			sim.Run([]int32{u}, nil, nil)
			if sim.StateOf(root, core.A) == core.Adopted {
				want = append(want, u)
			}
		}
		if !setsEqual(got, want) {
			t.Fatalf("trial %d root %d: IC RR %v != brute force %v", trial, root, got, want)
		}
	}
}

func TestSIMBruteForce(t *testing.T) {
	// RR-SIM must reproduce the Definition 1 set exactly, world by world
	// (Theorem 7), under one-way complementarity.
	for trial := 0; trial < 40; trial++ {
		r := rng.New(uint64(200 + trial))
		g := graph.ErdosRenyi(20, 60, r)
		graph.AssignUniform(g, 0.5)
		qb := r.Float64()
		gap := core.GAP{QA0: 0.3 * r.Float64(), QAB: 0.5 + 0.5*r.Float64(), QB0: qb, QBA: qb}
		w := core.SampleWorld(g, r)
		seedsB := []int32{int32(r.Intn(g.N())), int32(r.Intn(g.N()))}
		root := int32(r.Intn(g.N()))

		gen, err := NewSIM(g, gap, seedsB)
		if err != nil {
			t.Fatal(err)
		}
		gen.SetWorld(w)
		var set RRSet
		gen.Generate(root, rng.New(1), &set)
		got := sortedNodes(&set)
		want := bruteForceSelfRR(g, gap, w, seedsB, root)
		if !setsEqual(got, want) {
			t.Fatalf("trial %d root %d gap %+v: RR-SIM %v != brute force %v",
				trial, root, gap, got, want)
		}
	}
}

func TestSIMPlusMatchesSIMWorldForWorld(t *testing.T) {
	// Lemma 7: given the same possible world, RR-SIM and RR-SIM+ produce
	// identical RR sets.
	for trial := 0; trial < 40; trial++ {
		r := rng.New(uint64(300 + trial))
		g := graph.ErdosRenyi(25, 80, r)
		graph.AssignUniform(g, 0.4)
		qb := r.Float64()
		gap := core.GAP{QA0: 0.2, QAB: 0.8, QB0: qb, QBA: qb}
		w := core.SampleWorld(g, r)
		seedsB := []int32{int32(r.Intn(g.N()))}
		root := int32(r.Intn(g.N()))

		sim, err := NewSIM(g, gap, seedsB)
		if err != nil {
			t.Fatal(err)
		}
		plus, err := NewSIMPlus(g, gap, seedsB)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetWorld(w)
		plus.SetWorld(w)
		var a, b RRSet
		sim.Generate(root, rng.New(1), &a)
		plus.Generate(root, rng.New(2), &b)
		if !setsEqual(sortedNodes(&a), sortedNodes(&b)) {
			t.Fatalf("trial %d: RR-SIM %v != RR-SIM+ %v", trial, sortedNodes(&a), sortedNodes(&b))
		}
		if a.Width != b.Width {
			t.Fatalf("trial %d: widths differ: %d vs %d", trial, a.Width, b.Width)
		}
	}
}

func TestCIMBruteForce(t *testing.T) {
	// RR-CIM must reproduce the Definition 1 boost set exactly, world by
	// world (Theorem 8), when q_{B|A} = 1.
	for trial := 0; trial < 60; trial++ {
		r := rng.New(uint64(400 + trial))
		g := graph.ErdosRenyi(18, 54, r)
		graph.AssignUniform(g, 0.5)
		qa0 := 0.4 * r.Float64()
		gap := core.GAP{QA0: qa0, QAB: qa0 + (1-qa0)*r.Float64(), QB0: r.Float64(), QBA: 1}
		w := core.SampleWorld(g, r)
		seedsA := []int32{int32(r.Intn(g.N())), int32(r.Intn(g.N()))}
		root := int32(r.Intn(g.N()))

		gen, err := NewCIM(g, gap, seedsA)
		if err != nil {
			t.Fatal(err)
		}
		gen.SetWorld(w)
		var set RRSet
		gen.Generate(root, rng.New(1), &set)
		got := sortedNodes(&set)
		want := bruteForceCompRR(g, gap, w, seedsA, root)
		if !setsEqual(got, want) {
			t.Fatalf("trial %d root %d gap %+v seedsA %v:\nRR-CIM      %v\nbrute force %v",
				trial, root, gap, seedsA, got, want)
		}
	}
}

func TestCIMFigure3ZigZag(t *testing.T) {
	// Figure 3: a -> u0 ... u0 <-> u via a B-diffusible forward path and an
	// AB-diffusible backward path; u is A-potential but not AB-diffusible
	// and must still enter the RR set (Case 4).
	// Layout: a(0) -> u0(1) -> u(2) -> v(3), u(2) -> u0 would make a cycle;
	// instead: u -> x(4) -> u0 gives the B path u ~> u0, and u0 -> u the
	// A path.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1) // a -> u0 (A information)
	b.AddEdge(1, 2, 1) // u0 -> u (A relay back)
	b.AddEdge(2, 3, 1) // u -> v (root)
	b.AddEdge(2, 4, 1) // u -> x (B path)
	b.AddEdge(4, 1, 1) // x -> u0
	g := b.MustBuild()
	gap := core.GAP{QA0: 0.2, QAB: 0.8, QB0: 0.5, QBA: 1}
	w := &core.World{
		EdgeLive:  []bool{true, true, true, true, true},
		AlphaA:    make([]float64, 5),
		AlphaB:    make([]float64, 5),
		EdgeRank:  make([]float64, 5),
		SeedFirst: make([]core.Item, 5),
	}
	// u0(1): A-suspended (qA0 < α ≤ qAB) and AB-diffusible (αB ≤ qB0).
	w.AlphaA[1], w.AlphaB[1] = 0.5, 0.3
	// u(2): A-potential-able (α ≤ qAB) but NOT AB-diffusible (αB > qB0).
	w.AlphaA[2], w.AlphaB[2] = 0.5, 0.9
	// x(4): B-diffusible relay.
	w.AlphaA[4], w.AlphaB[4] = 0.95, 0.3
	// v(3): adopts A whenever informed.
	w.AlphaA[3], w.AlphaB[3] = 0.1, 0.9
	// a(0) is the A-seed.
	seedsA := []int32{0}

	gen, err := NewCIM(g, gap, seedsA)
	if err != nil {
		t.Fatal(err)
	}
	gen.SetWorld(w)
	var set RRSet
	gen.Generate(3, rng.New(1), &set)
	got := sortedNodes(&set)
	want := bruteForceCompRR(g, gap, w, seedsA, 3)
	if !setsEqual(got, want) {
		t.Fatalf("zig-zag RR %v != brute force %v", got, want)
	}
	// u (node 2) must be in the set: seeding B at u triggers the zig-zag.
	found := false
	for _, v := range got {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("case-4 node u missing from RR set %v", got)
	}
}

func TestSIMActivationEquivalence(t *testing.T) {
	// Definition 2 with lazy sampling: P(S ∩ RR(v) ≠ ∅) over random worlds
	// equals P(S activates v), computed exactly.
	r := rng.New(91)
	g := graph.ErdosRenyi(6, 7, r)
	graph.AssignUniform(g, 0.7)
	gap := core.GAP{QA0: 0.3, QAB: 0.9, QB0: 0.6, QBA: 0.6}
	seedsB := []int32{0}
	root := int32(3)
	S := []int32{1, 5}

	want, err := exact.AdoptionProbability(g, gap, S, seedsB, root, core.A)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := NewSIM(g, gap, seedsB)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 60000
	hits := 0
	var set RRSet
	inS := map[int32]bool{1: true, 5: true}
	for i := 0; i < draws; i++ {
		gen.Generate(root, rng.NewStream(92, uint64(i)), &set)
		for _, u := range set.Nodes {
			if inS[u] {
				hits++
				break
			}
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-want) > 0.012 {
		t.Fatalf("activation equivalence: RR overlap %v, exact activation %v", got, want)
	}
}

func TestCIMActivationEquivalence(t *testing.T) {
	r := rng.New(93)
	g := graph.ErdosRenyi(6, 5, r)
	graph.AssignUniform(g, 0.85)
	gap := core.GAP{QA0: 0.2, QAB: 0.8, QB0: 0.4, QBA: 1}
	seedsA := []int32{0}
	root := int32(4)
	S := []int32{2, 5}

	with, err := exact.AdoptionProbability(g, gap, seedsA, S, root, core.A)
	if err != nil {
		t.Fatal(err)
	}
	without, err := exact.AdoptionProbability(g, gap, seedsA, nil, root, core.A)
	if err != nil {
		t.Fatal(err)
	}
	want := with - without

	gen, err := NewCIM(g, gap, seedsA)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 60000
	hits := 0
	var set RRSet
	inS := map[int32]bool{2: true, 5: true}
	for i := 0; i < draws; i++ {
		gen.Generate(root, rng.NewStream(94, uint64(i)), &set)
		for _, u := range set.Nodes {
			if inS[u] {
				hits++
				break
			}
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-want) > 0.012 {
		t.Fatalf("activation equivalence: RR overlap %v, exact boost %v", got, want)
	}
}

func TestNewSIMRejectsBadGAPs(t *testing.T) {
	g := graph.Path(3, 1)
	for _, c := range []struct {
		name string
		make func(core.GAP, []int32) error
	}{
		{"RR-SIM", func(gap core.GAP, sb []int32) error { _, err := NewSIM(g, gap, sb); return err }},
		{"RR-SIM+", func(gap core.GAP, sb []int32) error { _, err := NewSIMPlus(g, gap, sb); return err }},
	} {
		if c.make(core.GAP{QA0: 0.5, QAB: 0.9, QB0: 0.3, QBA: 0.8}, nil) == nil {
			t.Fatalf("%s accepted qB0 != qBA", c.name)
		}
		if c.make(core.GAP{QA0: 0.9, QAB: 0.5, QB0: 0.3, QBA: 0.3}, nil) == nil {
			t.Fatalf("%s accepted qA0 > qAB", c.name)
		}
		if c.make(core.GAP{QA0: 2, QAB: 0.5, QB0: 0.3, QBA: 0.3}, nil) == nil {
			t.Fatalf("%s accepted invalid GAP", c.name)
		}
		if c.make(core.GAP{QA0: 0.3, QAB: 0.5, QB0: 0.3, QBA: 0.3}, []int32{3}) == nil {
			t.Fatalf("%s accepted a B-seed outside the graph", c.name)
		}
	}
}

// TestNewSIMPlusAllocs: RR-SIM+ checks its inputs without building a
// throwaway RR-SIM generator, so a construction (one per worker clone)
// allocates its own scratch only: one marker more than RR-SIM's.
func TestNewSIMPlusAllocs(t *testing.T) {
	g := graph.PowerLaw(300, 6, 2.16, true, rng.New(1))
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5}
	seedsB := []int32{1, 2, 3}
	var err error
	sim := testing.AllocsPerRun(10, func() { _, err = NewSIM(g, gap, seedsB) })
	plus := testing.AllocsPerRun(10, func() { _, err = NewSIMPlus(g, gap, seedsB) })
	if err != nil {
		t.Fatal(err)
	}
	if plus > sim+1 {
		t.Fatalf("NewSIMPlus allocates %v times, NewSIM %v: want at most one more", plus, sim)
	}
}

func TestNewCIMRejectsBadGAPs(t *testing.T) {
	g := graph.Path(3, 1)
	if _, err := NewCIM(g, core.GAP{QA0: 0.2, QAB: 0.8, QB0: 0.4, QBA: 0.9}, nil); err == nil {
		t.Fatal("RR-CIM accepted qBA != 1")
	}
	if _, err := NewCIM(g, core.GAP{QA0: 0.9, QAB: 0.5, QB0: 0.4, QBA: 1}, nil); err == nil {
		t.Fatal("RR-CIM accepted qA0 > qAB")
	}
}

func TestSIMEmptySeedsBReducesToThresholdIC(t *testing.T) {
	// With no B seeds and qA0 = qAB = 1, RR-SIM equals IC RR sets.
	for trial := 0; trial < 20; trial++ {
		g, w, r := randomGraphWorld(uint64(500+trial), 15, 40, 0.5)
		gap := core.GAP{QA0: 1, QAB: 1, QB0: 0.5, QBA: 0.5}
		gen, err := NewSIM(g, gap, nil)
		if err != nil {
			t.Fatal(err)
		}
		ic := NewIC(g)
		gen.SetWorld(w)
		ic.SetWorld(w)
		root := int32(r.Intn(g.N()))
		var a, b RRSet
		gen.Generate(root, rng.New(1), &a)
		ic.Generate(root, rng.New(2), &b)
		if !setsEqual(sortedNodes(&a), sortedNodes(&b)) {
			t.Fatalf("trial %d: SIM-with-empty-B %v != IC %v", trial, sortedNodes(&a), sortedNodes(&b))
		}
	}
}

func TestCIMEmptyForAdoptedRoot(t *testing.T) {
	// Root that adopts A without B help yields an empty RR set.
	g := graph.Path(3, 1)
	gap := core.GAP{QA0: 1, QAB: 1, QB0: 0.5, QBA: 1}
	gen, err := NewCIM(g, gap, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	var set RRSet
	gen.Generate(2, rng.New(3), &set)
	if len(set.Nodes) != 0 {
		t.Fatalf("RR set for an always-adopting root: %v", set.Nodes)
	}
	if gen.Counters().EmptySets != 1 {
		t.Fatal("EmptySets counter not incremented")
	}
}

func TestCIMEmptyForUnreachableRoot(t *testing.T) {
	g := graph.Path(3, 1)
	gap := core.GAP{QA0: 0.5, QAB: 0.9, QB0: 0.5, QBA: 1}
	gen, err := NewCIM(g, gap, nil) // no A seeds at all
	if err != nil {
		t.Fatal(err)
	}
	var set RRSet
	gen.Generate(1, rng.New(3), &set)
	if len(set.Nodes) != 0 {
		t.Fatalf("RR set without any A seed: %v", set.Nodes)
	}
}

func TestWidthMatchesInDegrees(t *testing.T) {
	g := graph.Star(5, 1)
	gen := NewIC(g)
	var set RRSet
	gen.Generate(2, rng.New(1), &set) // leaf: contains leaf + hub
	want := int64(0)
	for _, v := range set.Nodes {
		want += int64(g.InDegree(v))
	}
	if set.Width != want {
		t.Fatalf("width %d, want %d", set.Width, want)
	}
}

func TestLambdaFormula(t *testing.T) {
	n, k := 1000, 10
	eps, ell := 0.5, 1.0
	got := Lambda(n, k, eps, ell)
	want := (8 + 2*eps) * float64(n) *
		(ell*math.Log(float64(n)) + lnChoose(n, k) + math.Ln2) / (eps * eps)
	if got != want {
		t.Fatalf("Lambda = %v, want %v", got, want)
	}
	if Lambda(1, 1, 0.5, 1) != 1 {
		t.Fatal("Lambda must degrade gracefully for n < 2")
	}
}

func TestLnChoose(t *testing.T) {
	if got := lnChoose(5, 2); math.Abs(got-math.Log(10)) > 1e-9 {
		t.Fatalf("lnChoose(5,2) = %v", got)
	}
	if lnChoose(5, 0) != 0 || lnChoose(5, 6) != 0 {
		t.Fatal("lnChoose edge cases wrong")
	}
}

func TestThetaClamping(t *testing.T) {
	for _, c := range []struct {
		name            string
		lambda, kpt     float64
		maxTheta, theta int
	}{
		{"division", 100, 10, 0, 10},
		{"max clamp", 100, 10, 5, 5},
		{"lower clamp", 0.5, 10, 0, 1},
		{"KPT below 1", 100, 0.5, 0, 100},
		// λ/KPT past the int range: the cap, not a wrapped-around 1.
		{"huge lambda", Lambda(600, 10, 1e-8, 1), 50, 2_000_000, 2_000_000},
		{"huge lambda, no cap", 1e30, 1, 0, math.MaxInt},
		// ε² underflows to 0 and λ to +Inf.
		{"infinite lambda", Lambda(600, 10, 1e-170, 1), 50, 500, 500},
	} {
		if got := Theta(c.lambda, c.kpt, c.maxTheta); got != c.theta {
			t.Errorf("%s: Theta(%v, %v, %d) = %d, want %d", c.name, c.lambda, c.kpt, c.maxTheta, got, c.theta)
		}
	}
}

// TestSetWorldRejectsMismatchedWorld: every generator kind refuses a world
// sampled for a larger or a smaller graph, as core.Simulator.SetWorld does,
// instead of drawing RR sets from the wrong draws or failing on a build
// worker with an index out of range.
func TestSetWorldRejectsMismatchedWorld(t *testing.T) {
	g := graph.PowerLaw(50, 3, 2.16, true, rng.New(1))
	selfGAP := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5}
	compGAP := core.GAP{QA0: 0.1, QAB: 0.9, QB0: 0.5, QBA: 1}
	for _, req := range []CollectionRequest{
		{Kind: KindIC},
		{Kind: KindSIM, GAP: selfGAP, Opposite: []int32{1}},
		{Kind: KindSIMPlus, GAP: selfGAP, Opposite: []int32{1}},
		{Kind: KindCIM, GAP: compGAP, Opposite: []int32{1}},
	} {
		req.Graph = g
		gen, err := req.NewGenerator()
		if err != nil {
			t.Fatal(err)
		}
		gen.SetWorld(core.SampleWorld(g, rng.New(2)))
		for _, other := range []*graph.Graph{
			graph.PowerLaw(500, 6, 2.16, true, rng.New(3)),
			graph.PowerLaw(20, 3, 2.16, true, rng.New(4)),
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "world was not sampled for this graph") {
						t.Errorf("%s, world for %d nodes: SetWorld panic = %q, want a world/graph mismatch",
							req.Kind, other.N(), msg)
					}
				}()
				gen.SetWorld(core.SampleWorld(other, rng.New(5)))
			}()
		}
	}
}

func TestEstimateKPTBounds(t *testing.T) {
	g := graph.PowerLaw(500, 6, 2.16, true, rng.New(7))
	graph.AssignWeightedCascade(g)
	gen := NewIC(g)
	kpt := EstimateKPT(gen, g.M(), 10, 1, 11, 1)
	if kpt < 1 || kpt > float64(g.N()) {
		t.Fatalf("KPT = %v outside [1, n]", kpt)
	}
}

func TestEstimateKPTWorkerIndependence(t *testing.T) {
	// The KPT estimate is a float sum over probe sets; it must be bitwise
	// identical for every worker count (probe j always draws stream j, and
	// κ values are accumulated in probe order).
	g := graph.PowerLaw(500, 6, 2.16, true, rng.New(7))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5}
	newGen := func() Generator {
		gen, err := NewSIMPlus(g, gap, []int32{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	gen1 := newGen()
	ref := EstimateKPT(gen1, g.M(), 10, 1, 11, 1)
	for _, workers := range []int{2, 3, 8} {
		genW := newGen()
		if got := EstimateKPT(genW, g.M(), 10, 1, 11, workers); got != ref {
			t.Fatalf("workers=%d: KPT %v != single-worker %v", workers, got, ref)
		}
		// Probing counters must also be worker-count independent.
		if *genW.Counters() != *gen1.Counters() {
			t.Fatalf("workers=%d: counters %+v != single-worker %+v",
				workers, *genW.Counters(), *gen1.Counters())
		}
	}
}

func TestSelectMaxCoverageHandPicked(t *testing.T) {
	sets := []RRSet{
		{Nodes: []int32{0, 1}},
		{Nodes: []int32{1, 2}},
		{Nodes: []int32{1}},
		{Nodes: []int32{3}},
	}
	seeds, covered := selectMaxCoverage(sets, 4, 1)
	if seeds[0] != 1 || covered != 3 {
		t.Fatalf("seeds=%v covered=%d, want node 1 covering 3", seeds, covered)
	}
	seeds, covered = selectMaxCoverage(sets, 4, 2)
	if covered != 4 {
		t.Fatalf("two seeds should cover all: %v covered=%d", seeds, covered)
	}
}

func TestSelectMaxCoverageEmptySets(t *testing.T) {
	sets := []RRSet{{Nodes: nil}, {Nodes: []int32{2}}}
	seeds, covered := selectMaxCoverage(sets, 3, 1)
	if seeds[0] != 2 || covered != 1 {
		t.Fatalf("seeds=%v covered=%d", seeds, covered)
	}
	if seeds, st := SelectSeeds(&Collection{}, 3); len(seeds) != 0 || st.Coverage != 0 {
		t.Fatalf("zero Collection selected %v (coverage %v), want nothing", seeds, st.Coverage)
	}
}

func TestSelectMaxCoverageDistinctSeedsWhenSaturated(t *testing.T) {
	// With fewer sets than seeds requested, coverage saturates early; the
	// filler seeds must still be distinct nodes, never repeats.
	sets := []RRSet{{Root: 3, Nodes: []int32{3}}, {Root: 3, Nodes: []int32{3}}}
	seeds, covered := selectMaxCoverage(sets, 10, 5)
	if covered != 2 {
		t.Fatalf("covered = %d, want 2", covered)
	}
	if len(seeds) != 5 || seeds[0] != 3 {
		t.Fatalf("seeds = %v, want 5 seeds led by node 3", seeds)
	}
	seen := map[int32]bool{}
	for _, v := range seeds {
		if seen[v] {
			t.Fatalf("seeds = %v contain duplicate node %d", seeds, v)
		}
		seen[v] = true
	}
}

func TestSelectMaxCoverageMatchesScan(t *testing.T) {
	// The CELF lazy-greedy must reproduce the retained eager argmax scan
	// seed-for-seed on randomized instances — including heavy ties, which
	// small node ranges with duplicated sets force constantly.
	for trial := 0; trial < 200; trial++ {
		r := rng.New(uint64(9000 + trial))
		n := 2 + r.Intn(30)
		numSets := r.Intn(40)
		sets := make([]RRSet, numSets)
		for i := range sets {
			sz := r.Intn(5)
			for j := 0; j < sz; j++ {
				sets[i].Nodes = append(sets[i].Nodes, int32(r.Intn(n)))
			}
			if r.Intn(4) == 0 && i > 0 {
				// Duplicate an earlier set wholesale: guaranteed gain ties.
				sets[i].Nodes = append([]int32(nil), sets[i-1].Nodes...)
			}
		}
		k := 1 + r.Intn(n+2) // sometimes k > n: both must clamp identically
		wantSeeds, wantCov := selectMaxCoverageScan(sets, n, min(k, n))
		gotSeeds, gotCov := selectMaxCoverage(sets, n, k)
		if !setsEqual(gotSeeds, wantSeeds) || gotCov != wantCov {
			t.Fatalf("trial %d (n=%d, sets=%d, k=%d):\nCELF %v cov %d\nscan %v cov %d",
				trial, n, numSets, k, gotSeeds, gotCov, wantSeeds, wantCov)
		}
	}
}

func TestSelectMaxCoverageTieBreaksByLowestID(t *testing.T) {
	// Three nodes covering the same two sets: the scan always picked the
	// lowest id first; the CELF heap must do the same.
	sets := []RRSet{
		{Nodes: []int32{5, 3, 7}},
		{Nodes: []int32{7, 5, 3}},
	}
	seeds, covered := selectMaxCoverage(sets, 9, 3)
	if covered != 2 {
		t.Fatalf("covered = %d, want 2", covered)
	}
	// First pick: tie at gain 2 between {3,5,7} -> 3. Then every count is
	// 0 and the filler must be the lowest-id unchosen nodes: 0, 1.
	want := []int32{3, 0, 1}
	if !setsEqual(seeds, want) {
		t.Fatalf("seeds = %v, want %v", seeds, want)
	}
}

// TestBuildCollectionArenaMatchesCollect: the flat arena holds exactly the
// sets one generator collects, one Generate per random stream i of the
// seed, set for set and node for node, and the build's counters are that
// generator's, for any worker count.
func TestBuildCollectionArenaMatchesCollect(t *testing.T) {
	g := graph.PowerLaw(300, 6, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	const theta, seed = 250, 77
	ref := NewIC(g)
	want := make([]RRSet, theta)
	for i := range want {
		r := rng.NewStream(seed, uint64(i))
		ref.Generate(int32(r.Intn(g.N())), r, &want[i])
	}
	for _, workers := range []int{1, 4} {
		col := BuildCollection(NewIC(g), g.M(), 5, Options{FixedTheta: theta, Workers: workers}, seed)
		if col.Len() != len(want) {
			t.Fatalf("workers=%d: Len = %d, want %d", workers, col.Len(), len(want))
		}
		for i := range want {
			got := col.Set(i)
			if got.Root != want[i].Root || got.Width != want[i].Width {
				t.Fatalf("workers=%d set %d: root/width (%d,%d) != (%d,%d)",
					workers, i, got.Root, got.Width, want[i].Root, want[i].Width)
			}
			if !setsEqual(got.Nodes, want[i].Nodes) {
				t.Fatalf("workers=%d set %d: nodes %v != %v", workers, i, got.Nodes, want[i].Nodes)
			}
		}
		if col.Explored != *ref.Counters() {
			t.Fatalf("workers=%d: counters %+v, generator's %+v", workers, col.Explored, *ref.Counters())
		}
	}
}

// TestCollectDeterministicAcrossWorkers: builds at 1 and 4 workers hold the
// same sets and accumulate the same counters.
func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	g := graph.PowerLaw(300, 6, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	col1 := BuildCollection(NewIC(g), g.M(), 5, Options{FixedTheta: 200, Workers: 1}, 77)
	col4 := BuildCollection(NewIC(g), g.M(), 5, Options{FixedTheta: 200, Workers: 4}, 77)
	if col1.Len() != col4.Len() {
		t.Fatalf("Len %d at 1 worker, %d at 4", col1.Len(), col4.Len())
	}
	for i := 0; i < col1.Len(); i++ {
		s1, s4 := col1.Set(i), col4.Set(i)
		if !setsEqual(sortedNodes(&s1), sortedNodes(&s4)) {
			t.Fatalf("set %d differs between worker counts", i)
		}
	}
	// Counters must be accumulated identically.
	if col1.Explored != col4.Explored {
		t.Fatalf("counters differ across worker counts: %+v vs %+v", col1.Explored, col4.Explored)
	}
}

// TestBuildCollectionWorldInjected: every kind's Clone carries an injected
// world, so a parallel build on worker clones reads that world, and each
// set equals the one the injected generator itself makes for the same
// stream.
func TestBuildCollectionWorldInjected(t *testing.T) {
	g, world, _ := randomGraphWorld(5, 60, 240, 0.2)
	selfGAP := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5}
	compGAP := core.GAP{QA0: 0.1, QAB: 0.9, QB0: 0.5, QBA: 1}
	opp := []int32{1, 2, 3}
	for _, req := range []CollectionRequest{
		{Kind: KindIC},
		{Kind: KindSIM, GAP: selfGAP, Opposite: opp},
		{Kind: KindSIMPlus, GAP: selfGAP, Opposite: opp},
		{Kind: KindCIM, GAP: compGAP, Opposite: opp},
	} {
		req.Graph = g
		t.Run(string(req.Kind), func(t *testing.T) {
			gen, err := req.NewGenerator()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := req.NewGenerator()
			if err != nil {
				t.Fatal(err)
			}
			gen.SetWorld(world)
			ref.SetWorld(world)
			const theta, seed = 200, 7
			col := BuildCollection(gen, g.M(), 3, Options{FixedTheta: theta, Workers: 3}, seed)
			var want RRSet
			for i := 0; i < theta; i++ {
				r := rng.NewStream(seed, uint64(i))
				ref.Generate(int32(r.Intn(g.N())), r, &want)
				got := col.Set(i)
				if got.Root != want.Root || got.Width != want.Width || !setsEqual(got.Nodes, want.Nodes) {
					t.Fatalf("set %d: built (%d, %d, %v), world's (%d, %d, %v)",
						i, got.Root, got.Width, got.Nodes, want.Root, want.Width, want.Nodes)
				}
			}
		})
	}
}

func TestCollectionBytesExact(t *testing.T) {
	g := graph.PowerLaw(300, 6, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	col := BuildCollection(NewIC(g), g.M(), 5, Options{FixedTheta: 500}, 9)

	// Compute the expected footprint from quantities independent of the
	// Bytes() implementation: θ fixes the offsets/roots/widths lengths and
	// the per-set node counts (via the accessors) fix the arena length.
	// Element sizes are taken from the types, not hard-coded like Bytes().
	theta := int64(col.Len())
	var totalNodes int64
	for i := 0; i < col.Len(); i++ {
		totalNodes += int64(len(col.NodesOf(i)))
	}
	var n32 int32
	var n64 int64
	measured := int64(unsafe.Sizeof(*col)) +
		(theta+1)*int64(unsafe.Sizeof(n64)) + // offsets
		totalNodes*int64(unsafe.Sizeof(n32)) + // node arena
		theta*int64(unsafe.Sizeof(n32)) + // roots
		theta*int64(unsafe.Sizeof(n64)) + // widths
		int64(unsafe.Sizeof(coverIndex{})) + // coverage index
		(int64(g.N())+1)*int64(unsafe.Sizeof(n64)) + // cover offsets
		totalNodes*int64(unsafe.Sizeof(n32)) // cover postings
	if got := col.Bytes(); got != measured {
		t.Fatalf("Bytes() = %d, measured arena footprint %d", got, measured)
	}
	// The backing arrays must be allocated exactly (len == cap): a grown
	// append slack would make the accounting an estimate again.
	if cap(col.nodes) != len(col.nodes) || cap(col.offsets) != len(col.offsets) ||
		cap(col.roots) != len(col.roots) || cap(col.widths) != len(col.widths) {
		t.Fatalf("arena slack: nodes %d/%d offsets %d/%d roots %d/%d widths %d/%d",
			len(col.nodes), cap(col.nodes), len(col.offsets), cap(col.offsets),
			len(col.roots), cap(col.roots), len(col.widths), cap(col.widths))
	}
	if col.cover == nil || cap(col.cover.off) != len(col.cover.off) ||
		cap(col.cover.sets) != len(col.cover.sets) {
		t.Fatalf("coverage index missing or slack-allocated")
	}
	if int64(len(col.cover.sets)) != totalNodes || len(col.cover.off) != g.N()+1 {
		t.Fatalf("coverage index sized %d postings/%d offsets, want %d/%d",
			len(col.cover.sets), len(col.cover.off), totalNodes, g.N()+1)
	}
	if col.TotalNodes != int64(len(col.nodes)) {
		t.Fatalf("TotalNodes %d != arena length %d", col.TotalNodes, len(col.nodes))
	}
}

func TestBuildCollectionSeparatesKPTFromGeneration(t *testing.T) {
	// Explored must cover θ-generation only and ExploredKPT the probing
	// phase only: conflating them inflated the paper's EPT quantities.
	g := graph.PowerLaw(300, 5, 2.16, true, rng.New(5))
	graph.AssignWeightedCascade(g)
	gen := NewIC(g)
	col := BuildCollection(gen, g.M(), 5, Options{Epsilon: 1, MaxTheta: 50000}, 7)
	if col.ExploredKPT.Sets == 0 {
		t.Fatal("KPT probing ran but ExploredKPT is empty")
	}
	if col.Explored.Sets != int64(col.Theta) {
		t.Fatalf("Explored.Sets = %d, want exactly theta = %d (no KPT probes)",
			col.Explored.Sets, col.Theta)
	}
	// The two phases must sum to everything the generator accumulated.
	total := col.Explored
	total.Add(&col.ExploredKPT)
	if total != *gen.Counters() {
		t.Fatalf("Explored + ExploredKPT = %+v != generator total %+v", total, *gen.Counters())
	}

	// With FixedTheta there is no probing phase at all.
	fixed := BuildCollection(NewIC(g), g.M(), 5, Options{FixedTheta: 100}, 7)
	if fixed.ExploredKPT != (Counters{}) {
		t.Fatalf("FixedTheta build has ExploredKPT = %+v, want zero", fixed.ExploredKPT)
	}
	if fixed.Explored.Sets != 100 {
		t.Fatalf("FixedTheta Explored.Sets = %d, want 100", fixed.Explored.Sets)
	}
}

func TestGeneralTIMPicksHubUnderIC(t *testing.T) {
	g := graph.Star(50, 1)
	gen := NewIC(g)
	seeds, st := SelectSeeds(BuildCollection(gen, g.M(), 1, Options{FixedTheta: 500}, 3), 1)
	if len(seeds) != 1 || seeds[0] != 0 {
		t.Fatalf("GeneralTIM picked %v, want hub 0", seeds)
	}
	if st.Theta != 500 {
		t.Fatalf("theta = %d", st.Theta)
	}
	if st.SpreadEstimate < 45 {
		t.Fatalf("spread estimate %v too low for a p=1 star", st.SpreadEstimate)
	}
}

func TestGeneralTIMSelfInfMaxQuality(t *testing.T) {
	// On a small instance, GeneralTIM with RR-SIM should find a seed whose
	// Monte-Carlo spread is within 90% of the best single node's.
	r := rng.New(55)
	g := graph.ErdosRenyi(12, 36, r)
	graph.AssignUniform(g, 0.7)
	gap := core.GAP{QA0: 0.4, QAB: 0.9, QB0: 0.5, QBA: 0.5}
	seedsB := []int32{0}
	gen, err := NewSIM(g, gap, seedsB)
	if err != nil {
		t.Fatal(err)
	}
	seeds, _ := SelectSeeds(BuildCollection(gen, g.M(), 1, Options{FixedTheta: 4000}, 9), 1)

	est := montecarlo.New(g, gap)
	evalOne := func(u int32) float64 {
		return est.SpreadA([]int32{u}, seedsB, 20000, 56)
	}
	best := 0.0
	for u := int32(0); u < int32(g.N()); u++ {
		if v := evalOne(u); v > best {
			best = v
		}
	}
	got := evalOne(seeds[0])
	if got < 0.9*best {
		t.Fatalf("GeneralTIM seed %d has spread %v, best is %v", seeds[0], got, best)
	}
}

func TestGeneralTIMAutoTheta(t *testing.T) {
	g := graph.PowerLaw(300, 5, 2.16, true, rng.New(5))
	graph.AssignWeightedCascade(g)
	gen := NewIC(g)
	seeds, st := SelectSeeds(BuildCollection(gen, g.M(), 5, Options{Epsilon: 1, MaxTheta: 50000}, 7), 5)
	if len(seeds) != 5 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	if st.KPT < 1 {
		t.Fatalf("KPT = %v", st.KPT)
	}
	if st.Theta <= 0 || st.Theta > 50000 {
		t.Fatalf("theta = %d", st.Theta)
	}
	if st.Lambda <= 0 {
		t.Fatal("lambda not recorded")
	}
}

func TestCountersPopulated(t *testing.T) {
	g := graph.PowerLaw(200, 6, 2.16, true, rng.New(3))
	graph.AssignUniform(g, 0.3)
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5}
	gen, err := NewSIM(g, gap, []int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	BuildCollection(gen, g.M(), 1, Options{FixedTheta: 100, Workers: 2}, 9)
	c := gen.Counters()
	if c.Sets != 100 {
		t.Fatalf("Sets = %d", c.Sets)
	}
	if c.EdgesForward == 0 || c.EdgesBackward == 0 {
		t.Fatalf("exploration counters empty: %+v", c)
	}

	plus, err := NewSIMPlus(g, gap, []int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	BuildCollection(plus, g.M(), 1, Options{FixedTheta: 100, Workers: 2}, 9)
	cp := plus.Counters()
	if cp.EdgesBackwardFirst == 0 {
		t.Fatalf("RR-SIM+ first-pass counter empty: %+v", cp)
	}
	// The headline claim of RR-SIM+: less forward work than RR-SIM.
	if cp.EdgesForward > c.EdgesForward {
		t.Fatalf("RR-SIM+ forward work %d exceeds RR-SIM's %d", cp.EdgesForward, c.EdgesForward)
	}
}

func BenchmarkRRSIM(b *testing.B) {
	g := graph.PowerLaw(5000, 10, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5}
	gen, err := NewSIM(g, gap, []int32{0, 1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	var set RRSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.NewStream(2, uint64(i))
		gen.Generate(int32(r.Intn(g.N())), r, &set)
	}
}

func BenchmarkRRSIMPlus(b *testing.B) {
	g := graph.PowerLaw(5000, 10, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5}
	gen, err := NewSIMPlus(g, gap, []int32{0, 1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	var set RRSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.NewStream(2, uint64(i))
		gen.Generate(int32(r.Intn(g.N())), r, &set)
	}
}

func BenchmarkRRCIM(b *testing.B) {
	g := graph.PowerLaw(5000, 10, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.1, QAB: 0.9, QB0: 0.5, QBA: 1}
	gen, err := NewCIM(g, gap, []int32{0, 1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	var set RRSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.NewStream(2, uint64(i))
		gen.Generate(int32(r.Intn(g.N())), r, &set)
	}
}

// BenchmarkBuildCollection times one whole RR-SIM+ build with θ derived
// from KPT: the probe batches, then θ sets into the arena, on the default
// workers.
func BenchmarkBuildCollection(b *testing.B) {
	g := graph.PowerLaw(2000, 8, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	req := CollectionRequest{
		Graph: g, Kind: KindSIMPlus, K: 10, Seed: 3,
		GAP:      core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5},
		Opposite: []int32{0, 1, 2, 3, 4},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := req.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectMaxCoverage times SelectSeeds over a built collection of
// 20,000 IC sets.
func BenchmarkSelectMaxCoverage(b *testing.B) {
	g := graph.PowerLaw(5000, 10, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	col := BuildCollection(NewIC(g), g.M(), 50, Options{FixedTheta: 20000}, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectSeeds(col, 50)
	}
}
