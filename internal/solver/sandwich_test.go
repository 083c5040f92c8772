package solver

import (
	"sync"
	"testing"

	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/exact"
	"comic/internal/graph"
	"comic/internal/montecarlo"
	"comic/internal/rng"
	"comic/internal/rrset"
)

func TestSelfBounds(t *testing.T) {
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}
	lower, upper := selfBounds(gap)
	if lower.QBA != gap.QB0 || lower.QB0 != gap.QB0 {
		t.Fatalf("lower bound wrong: %+v", lower)
	}
	if upper.QB0 != gap.QBA || upper.QBA != gap.QBA {
		t.Fatalf("upper bound wrong: %+v", upper)
	}
	if !lower.BIndifferentToA() || !upper.BIndifferentToA() {
		t.Fatal("bounds must make B indifferent to A (RR-SIM soundness)")
	}
}

func TestCompUpper(t *testing.T) {
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}
	upper := compUpper(gap)
	if upper.QBA != 1 || upper.QB0 != gap.QB0 || upper.QA0 != gap.QA0 || upper.QAB != gap.QAB {
		t.Fatalf("compUpper wrong: %+v", upper)
	}
}

// Theorem 10: σ_A is monotone in each GAP within Q+, so the bound instances
// really do sandwich the original objective. Verified exactly.
func TestBoundsSandwichSigmaExactly(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		r := rng.New(uint64(700 + trial))
		g := graph.ErdosRenyi(6, 8, r)
		graph.AssignUniform(g, 1)
		qa0 := 0.5 * r.Float64()
		qb0 := 0.5 * r.Float64()
		gap := core.GAP{
			QA0: qa0, QAB: qa0 + (1-qa0)*r.Float64(),
			QB0: qb0, QBA: qb0 + (1-qb0)*r.Float64(),
		}
		lower, upper := selfBounds(gap)
		sa, sb := []int32{0}, []int32{1}
		sLow, err := exact.SigmaA(g, lower, sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		sMid, err := exact.SigmaA(g, gap, sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		sUp, err := exact.SigmaA(g, upper, sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if !(sLow <= sMid+1e-9 && sMid <= sUp+1e-9) {
			t.Fatalf("trial %d: sandwich violated: μ=%v σ=%v ν=%v (gap %+v)",
				trial, sLow, sMid, sUp, gap)
		}
	}
}

func TestSolveSelfInfMaxIndifferentShortCircuit(t *testing.T) {
	g := graph.Star(30, 0.8)
	gap := core.GAP{QA0: 0.5, QAB: 0.9, QB0: 0.6, QBA: 0.6}
	cfg := NewConfig(1)
	cfg.TIM = rrset.Options{FixedTheta: 500}
	cfg.EvalRuns = 500
	res, err := SolveSelfInfMax(g, gap, []int32{3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Algorithm != AlgoRRSIMPlus || res.Chosen != "exact" || len(res.Candidates) != 1 {
		t.Fatalf("indifferent case should skip the sandwich: %+v", res)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("expected the hub, got %v", res.Seeds)
	}
	if res.UpperRatio != 1 {
		t.Fatalf("exact case must report ratio 1, got %v", res.UpperRatio)
	}
}

func TestSolveSelfInfMaxSandwich(t *testing.T) {
	g := graph.PowerLaw(400, 6, 2.16, true, rng.New(31))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}
	cfg := NewConfig(5)
	cfg.TIM = rrset.Options{FixedTheta: 3000}
	cfg.EvalRuns = 1000
	cfg.Seed = 7
	res, err := SolveSelfInfMax(g, gap, []int32{0, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Algorithm != AlgoSandwich {
		t.Fatalf("strict Q+ routed to %s", res.Plan.Algorithm)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("expected lower+upper candidates, got %d", len(res.Candidates))
	}
	// The chosen set must score at least as well as every candidate.
	for _, c := range res.Candidates {
		if res.Objective < c.Objective {
			t.Fatalf("selection broke Eq. 5: chose %v but %s has %v", res.Objective, c.Name, c.Objective)
		}
	}
	if res.UpperRatio <= 0 || res.UpperRatio > 1.1 {
		t.Fatalf("σ(Sν)/ν(Sν) = %v out of range", res.UpperRatio)
	}
}

// TestSandwichSelfEstimateCount counts the EvalRuns-sized estimates a
// sandwich SelfInfMax solve runs: lower's, ν's and, unless core.SameRuns
// says its runs would repeat lower's, upper's. The inputs are
// TestQPlusGolden's sandwich rows.
func TestSandwichSelfEstimateCount(t *testing.T) {
	g := graph.ErdosRenyi(300, 1800, rng.New(31))
	graph.AssignWeightedCascade(g)
	estimates := 0
	orig := spreadA
	defer func() { spreadA = orig }()
	spreadA = func(e *montecarlo.Estimator, seedsA, seedsB []int32, runs int, seed uint64) float64 {
		estimates++
		return orig(e, seedsA, seedsB, runs, seed)
	}
	strict := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}
	cases := []struct {
		name string
		gap  core.GAP
		k    int
		seed uint64
		opp  []int32
		want int
	}{
		{"different sets", strict, 4, 7, []int32{0, 1, 2}, 3},
		{"identical slices", strict, 2, 6, []int32{220, 255, 1, 281}, 2},
		{"dual seeds in the same order", core.GAP{QA0: 0.7, QAB: 0.95, QB0: 0.6, QBA: 0.9}, 3, 6, []int32{92, 222, 13, 52, 198}, 2},
		{"dual seeds swapped", strict, 2, 6, []int32{215, 233, 228}, 3},
	}
	for _, tc := range cases {
		cfg := testConfig(tc.k)
		cfg.Seed = tc.seed
		estimates = 0
		res, err := SolveSelfInfMax(g, tc.gap, tc.opp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lower, upper := res.Candidates[0], res.Candidates[1]
		if reuse := core.SameRuns(lower.Seeds, upper.Seeds, tc.opp); reuse != (tc.want == 2) {
			t.Fatalf("%s: SameRuns(%v, %v) = %v", tc.name, lower.Seeds, upper.Seeds, reuse)
		}
		if estimates != tc.want {
			t.Errorf("%s: solve ran %d estimates, want %d", tc.name, estimates, tc.want)
		}
	}
}

func TestSolveSelfInfMaxWithGreedy(t *testing.T) {
	g := graph.Star(20, 1)
	gap := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}
	cfg := NewConfig(1)
	cfg.TIM = rrset.Options{FixedTheta: 300}
	cfg.EvalRuns = 400
	cfg.IncludeGreedy = true
	cfg.GreedyRuns = 100
	res, err := SolveSelfInfMax(g, gap, []int32{5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 3 {
		t.Fatalf("expected 3 candidates with greedy, got %d", len(res.Candidates))
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("every candidate should find the hub, got %v from %s", res.Seeds, res.Chosen)
	}
}

func TestSolveCompInfMax(t *testing.T) {
	// Two chains, A seeded on one: B seeds only help there.
	b := graph.NewBuilder(40)
	for i := int32(0); i < 19; i++ {
		b.AddEdge(i, i+1, 0.9)
		b.AddEdge(20+i, 21+i, 0.9)
	}
	g := b.MustBuild()
	gap := core.GAP{QA0: 0.2, QAB: 0.9, QB0: 0.7, QBA: 0.9}
	cfg := NewConfig(2)
	cfg.TIM = rrset.Options{FixedTheta: 3000}
	cfg.EvalRuns = 2000
	cfg.Seed = 13
	res, err := SolveCompInfMax(g, gap, []int32{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	for _, s := range res.Seeds {
		if s >= 20 {
			t.Fatalf("B seed %d placed on the A-free chain", s)
		}
	}
	if res.Objective <= 0 {
		t.Fatalf("boost %v not positive", res.Objective)
	}
	if res.UpperRatio <= 0 || res.UpperRatio > 1.1 {
		t.Fatalf("ratio %v out of range", res.UpperRatio)
	}
}

// mapProvider serves each collection from a map once built, like a warm
// index with no budget.
type mapProvider struct {
	mu   sync.Mutex
	cols map[string]*rrset.Collection
}

func (p *mapProvider) Collection(req rrset.CollectionRequest) (*rrset.Collection, error) {
	key := req.Key()
	p.mu.Lock()
	col, ok := p.cols[key]
	p.mu.Unlock()
	if ok {
		return col, nil
	}
	col, err := req.Build()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.cols[key] = col
	p.mu.Unlock()
	return col, nil
}

// BenchmarkSandwichSelfWarm is one warm sandwich SelfInfMax solve: the
// first SelfInfMax config of loadbench's warm-solve workload (Flixster
// stand-in at scale 0.02, k 10, evalRuns 1000), whose lower and upper
// candidates coincide, with both bound collections already built. Its time
// is seed selection and Monte-Carlo scoring.
func BenchmarkSandwichSelfWarm(b *testing.B) {
	d := datasets.Flixster(0.02, 1)
	opp := []int32{78, 234, 24, 128, 233, 31, 2, 208, 8, 246}
	cfg := NewConfig(10)
	cfg.EvalRuns = 1000
	cfg.Seed = 1390705561
	cfg.Collections = &mapProvider{cols: map[string]*rrset.Collection{}}
	res, err := SolveSelfInfMax(d.Graph, d.GAP, opp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if lower, upper := res.Candidates[0].Seeds, res.Candidates[1].Seeds; res.Plan.Algorithm != AlgoSandwich || !core.SameRuns(lower, upper, opp) {
		b.Fatalf("%s solve with candidates %v and %v shares no estimate", res.Plan.Algorithm, lower, upper)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSelfInfMax(d.Graph, d.GAP, opp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
