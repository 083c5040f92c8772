package core_test

import (
	"testing"

	"comic/internal/core"
	"comic/internal/exact"
	"comic/internal/graph"
	"comic/internal/rng"
)

// activates reports whether seed set S (for item A) makes target adopt A in
// world w, with the fixed B-seed set.
func activatesA(sim *core.Simulator, sa, sb []int32, target int32) bool {
	sim.Run(sa, sb, nil)
	return sim.StateOf(target, core.A) == core.Adopted
}

// boostActivates reports whether B-seed set S flips target to A-adopted.
func boostActivates(sim *core.Simulator, sa, sb []int32, target int32) bool {
	sim.Run(sa, sb, nil)
	return sim.StateOf(target, core.A) == core.Adopted
}

// TestP1P2OneWayComplementarity checks Properties (P1) and (P2) of §6.1 for
// the SelfInfMax indicator f_{v,W}(S_A) in the one-way complementarity
// setting of Theorem 4 — by Lemma 4 this is exactly monotonicity plus
// submodularity of the indicator, the soundness basis of RR-SIM.
func TestP1P2OneWayComplementarity(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := rng.New(uint64(8000 + trial))
		g := graph.ErdosRenyi(18, 50, r)
		graph.AssignUniform(g, 0.5)
		qb := r.Float64()
		gap := core.GAP{QA0: 0.3 * r.Float64(), QAB: 0.5 + 0.5*r.Float64(), QB0: qb, QBA: qb}
		w := core.SampleWorld(g, r)
		sim := core.NewSimulator(g, gap)
		sim.SetWorld(w)
		sb := []int32{int32(r.Intn(g.N()))}

		S := []int32{int32(r.Intn(g.N())), int32(r.Intn(g.N()))}
		T := append(append([]int32(nil), S...), int32(r.Intn(g.N())), int32(r.Intn(g.N())))
		for v := int32(0); v < int32(g.N()); v++ {
			sAct := activatesA(sim, S, sb, v)
			tAct := activatesA(sim, T, sb, v)
			// (P1): S ⊆ T and S activates v => T activates v.
			if sAct && !tAct {
				t.Fatalf("trial %d: (P1) violated at node %d", trial, v)
			}
			// (P2): T activates v => some singleton of T activates v.
			if tAct {
				found := false
				for _, u := range T {
					if activatesA(sim, []int32{u}, sb, v) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: (P2) violated at node %d (T=%v)", trial, v, T)
				}
			}
		}
	}
}

// TestP1P2CompInfMaxAtQBA1 checks (P1)/(P2) for the CompInfMax boost
// indicator w.r.t. S_B when q_{B|A} = 1 (Theorem 5), the soundness basis of
// RR-CIM.
//
// Reproduction finding (documented in DESIGN.md §9): under the paper's
// stated seeding semantics — seeds adopt *without* testing the NLA
// (Figure 2, step 0) — (P2) can fail when a seeded node is itself
// non-B-diffusible (α_B > q_{B|∅}): as a seed it adopts B unconditionally
// and plays a relay role no singleton provides. Theorem 5's Claims 3/4
// implicitly assume every non-A-ready node that adopts B has α_B ≤ q_{B|∅},
// which only holds for non-seeds; the footnote-1 dummy-node convention
// (seeds selected among NLA-testing dummies) restores the claims. The test
// therefore asserts (P1) unconditionally and (P2) for seed sets whose
// members are B-diffusible in the world — and requires that every observed
// (P2) violation is explained by a non-B-diffusible seed.
func TestP1P2CompInfMaxAtQBA1(t *testing.T) {
	violations := 0
	for trial := 0; trial < 40; trial++ {
		r := rng.New(uint64(9000 + trial))
		g := graph.ErdosRenyi(16, 44, r)
		graph.AssignUniform(g, 0.5)
		qa0 := 0.4 * r.Float64()
		gap := core.GAP{QA0: qa0, QAB: qa0 + (1-qa0)*r.Float64(), QB0: r.Float64(), QBA: 1}
		w := core.SampleWorld(g, r)
		sim := core.NewSimulator(g, gap)
		sim.SetWorld(w)
		sa := []int32{int32(r.Intn(g.N()))}

		S := []int32{int32(r.Intn(g.N()))}
		T := append(append([]int32(nil), S...), int32(r.Intn(g.N())), int32(r.Intn(g.N())))
		allBDiffusible := true
		for _, u := range T {
			if w.AlphaB[u] > gap.QB0 {
				allBDiffusible = false
			}
		}
		for v := int32(0); v < int32(g.N()); v++ {
			if boostActivates(sim, sa, nil, v) {
				continue // boost indicator only defined for non-adopters
			}
			sAct := boostActivates(sim, sa, S, v)
			tAct := boostActivates(sim, sa, T, v)
			if sAct && !tAct {
				t.Fatalf("trial %d: (P1) violated at node %d", trial, v)
			}
			if tAct {
				found := false
				for _, u := range T {
					if boostActivates(sim, sa, []int32{u}, v) {
						found = true
						break
					}
				}
				if !found {
					if allBDiffusible {
						t.Fatalf("trial %d: unexplained (P2) violation at node %d (T=%v, all seeds B-diffusible)",
							trial, v, T)
					}
					violations++
				}
			}
		}
	}
	t.Logf("explained (P2) violations across trials: %d (all due to non-B-diffusible seeds)", violations)
}

// TestTheorem11P2HomogeneousCompetition checks (P2) for q_{A|∅} = q_{B|∅} = 1
// — the setting where Theorem 11 proves self-submodularity — with q_{A|B}
// and q_{B|A} anywhere in [0, 1]: strict competition, and every fourth trial
// on the one-way-suppression boundary q_{B|A} = 1, where B ignores A. (P1)
// is Theorem 3's monotonicity.
func TestTheorem11P2HomogeneousCompetition(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rng.New(uint64(10000 + trial))
		g := graph.ErdosRenyi(15, 40, r)
		graph.AssignUniform(g, 0.6)
		gap := core.GAP{QA0: 1, QAB: r.Float64(), QB0: 1, QBA: r.Float64()}
		if trial%4 == 0 {
			gap.QBA = 1
		}
		w := core.SampleWorld(g, r)
		sim := core.NewSimulator(g, gap)
		sim.SetWorld(w)
		sb := []int32{int32(r.Intn(g.N())), int32(r.Intn(g.N()))}

		T := []int32{int32(r.Intn(g.N())), int32(r.Intn(g.N())), int32(r.Intn(g.N()))}
		for v := int32(0); v < int32(g.N()); v++ {
			if !activatesA(sim, T, sb, v) {
				continue
			}
			found := false
			for _, u := range T {
				if activatesA(sim, []int32{u}, sb, v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: (P2) violated at node %d under Theorem 11 conditions", trial, v)
			}
		}
	}
}

// TestExample5StyleP2Violation hand-crafts a possible world in general Q−
// (q_{A|∅} < 1) where two A-seeds together activate v but neither singleton
// does — the Example 5 phenomenon that breaks self-submodularity outside
// Theorem 11's conditions: s2 blocks the B cascade at b1 while s1 delivers
// A along x1, x2.
//
//	s1 -> x1 -> x2 -> v     (A delivery path)
//	y  -> b1 -> b2 -> v     (B path; b2 relays B but never adopts A)
//	s2 -> b1                (A injection that blocks B at b1)
func TestExample5StyleP2Violation(t *testing.T) {
	const (
		s1 = 0
		x1 = 1
		x2 = 2
		v  = 3
		y  = 4
		b1 = 5
		b2 = 6
		s2 = 7
	)
	b := graph.NewBuilder(8)
	b.AddEdge(s1, x1, 1)
	b.AddEdge(x1, x2, 1)
	b.AddEdge(x2, v, 1)
	b.AddEdge(y, b1, 1)
	b.AddEdge(b1, b2, 1)
	b.AddEdge(b2, v, 1)
	b.AddEdge(s2, b1, 1)
	g := b.MustBuild()

	// Mutual competition: adopting B kills A (qAB = 0) and vice versa.
	gap := core.GAP{QA0: 0.5, QAB: 0, QB0: 1, QBA: 0}

	w := &core.World{
		EdgeLive:  make([]bool, g.M()),
		AlphaA:    make([]float64, g.N()),
		AlphaB:    make([]float64, g.N()),
		EdgeRank:  make([]float64, g.M()),
		SeedFirst: make([]core.Item, g.N()),
	}
	for i := range w.EdgeLive {
		w.EdgeLive[i] = true
		w.EdgeRank[i] = 0.5
	}
	for i := range w.AlphaA {
		w.AlphaA[i] = 0.1 // A-ready everywhere...
		w.AlphaB[i] = 0.1
	}
	w.AlphaA[b2] = 0.9 // ...except b2, which can only relay B.
	// Ties: A informs b1 before B does; B informs v before A does.
	rankOf := func(from, to int32) int32 {
		_, eids := g.InNeighbors(to)
		froms, _ := g.InNeighbors(to)
		for i, f := range froms {
			if f == from {
				return eids[i]
			}
		}
		t.Fatalf("edge %d->%d not found", from, to)
		return -1
	}
	w.EdgeRank[rankOf(s2, b1)] = 0.1
	w.EdgeRank[rankOf(y, b1)] = 0.9
	w.EdgeRank[rankOf(b2, v)] = 0.1
	w.EdgeRank[rankOf(x2, v)] = 0.9

	sim := core.NewSimulator(g, gap)
	sim.SetWorld(w)
	sb := []int32{y}

	if activatesA(sim, []int32{s1}, sb, v) {
		t.Fatal("{s1} alone should lose the race to B at v")
	}
	if activatesA(sim, []int32{s2}, sb, v) {
		t.Fatal("{s2} alone blocks B but delivers no A to v")
	}
	if !activatesA(sim, []int32{s1, s2}, sb, v) {
		t.Fatal("{s1, s2} together should activate v")
	}
}

// TestBoostZeroWhenAIndifferent: when q_{A|B} = q_{A|∅}, A's diffusion is
// independent of B (Lemma 3 symmetric case), so the CompInfMax boost must be
// exactly zero world by world.
func TestBoostZeroWhenAIndifferent(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rng.New(uint64(11000 + trial))
		g := graph.ErdosRenyi(20, 60, r)
		graph.AssignUniform(g, 0.5)
		q := r.Float64()
		gap := core.GAP{QA0: q, QAB: q, QB0: r.Float64(), QBA: r.Float64()}
		w := core.SampleWorld(g, r)
		sim := core.NewSimulator(g, gap)
		sim.SetWorld(w)
		sa := []int32{0, 1}
		with, _ := sim.Run(sa, []int32{2, 3, 4}, nil)
		without, _ := sim.Run(sa, nil, nil)
		if with != without {
			t.Fatalf("trial %d: boost %d despite A being indifferent to B", trial, with-without)
		}
	}
}

// TestSpreadBounds: spreads stay within [|seeds|, n] for seeds that exist,
// for arbitrary GAPs.
func TestSpreadBounds(t *testing.T) {
	r := rng.New(12000)
	g := graph.ErdosRenyi(30, 90, r)
	graph.AssignUniform(g, 0.5)
	for trial := 0; trial < 50; trial++ {
		gap := core.GAP{QA0: r.Float64(), QAB: r.Float64(), QB0: r.Float64(), QBA: r.Float64()}
		sim := core.NewSimulator(g, gap)
		a, bb := sim.Run([]int32{0, 1}, []int32{2}, r)
		if a < 2 || a > g.N() {
			t.Fatalf("sigmaA out of bounds: %d", a)
		}
		if bb < 1 || bb > g.N() {
			t.Fatalf("sigmaB out of bounds: %d", bb)
		}
	}
}

// TestExactMonotoneInGAPsTheorem10 verifies Theorem 10 exactly on a small
// instance: raising any single GAP within Q+ cannot decrease σ_A.
func TestExactMonotoneInGAPsTheorem10(t *testing.T) {
	r := rng.New(13000)
	g := graph.ErdosRenyi(5, 6, r)
	graph.AssignUniform(g, 1)
	base := core.GAP{QA0: 0.2, QAB: 0.5, QB0: 0.3, QBA: 0.6}
	sa, sb := []int32{0}, []int32{1}
	sigma := func(gap core.GAP) float64 {
		s, err := exact.SigmaA(g, gap, sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0 := sigma(base)
	bumps := []core.GAP{
		{QA0: 0.4, QAB: base.QAB, QB0: base.QB0, QBA: base.QBA},
		{QA0: base.QA0, QAB: 0.8, QB0: base.QB0, QBA: base.QBA},
		{QA0: base.QA0, QAB: base.QAB, QB0: 0.5, QBA: base.QBA},
		{QA0: base.QA0, QAB: base.QAB, QB0: base.QB0, QBA: 0.9},
	}
	for i, gap := range bumps {
		if !gap.MutuallyComplementary() {
			t.Fatalf("bump %d left Q+", i)
		}
		if got := sigma(gap); got < s0-1e-9 {
			t.Fatalf("bump %d decreased sigmaA: %v < %v", i, got, s0)
		}
	}
}
