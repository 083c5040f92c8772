package solver

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"comic/internal/core"
	"comic/internal/exact"
	"comic/internal/graph"
	"comic/internal/rng"
	"comic/internal/rrset"
)

func TestPlannerRoutes(t *testing.T) {
	cases := []struct {
		name               string
		gap                core.GAP
		selfAlgo           Algorithm
		compAlgo           Algorithm
		regime             core.Regime
		selfGuar, compGuar string
	}{
		{"strict Q+", core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9},
			AlgoSandwich, AlgoSandwich, core.RegimeQPlus, guaranteeSandwich, guaranteeSandwich},
		{"B-indifferent Q+", core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.4},
			AlgoRRSIMPlus, AlgoSandwich, core.RegimeOneWayComplementarity, guaranteeTIM, guaranteeSandwich},
		{"A-indifferent Q+ stays sandwich", core.GAP{QA0: 0.5, QAB: 0.5, QB0: 0.4, QBA: 0.9},
			AlgoSandwich, AlgoSandwich, core.RegimeOneWayComplementarity, guaranteeSandwich, guaranteeSandwich},
		{"mutual indifference", core.GAP{QA0: 0.5, QAB: 0.5, QB0: 0.4, QBA: 0.4},
			AlgoRRSIMPlus, AlgoSandwich, core.RegimeIndifference, guaranteeTIM, guaranteeSandwich},
		{"A-indifferent, A blocks B", core.GAP{QA0: 0.5, QAB: 0.5, QB0: 0.9, QBA: 0.2},
			AlgoRRSIMPlus, AlgoZeroBoost, core.RegimeOneWaySuppression, guaranteeTIM, guaranteeExact},
		{"B blocks A, B indifferent", core.GAP{QA0: 0.9, QAB: 0.2, QB0: 0.4, QBA: 0.4},
			AlgoMCGreedy, AlgoMCGreedy, core.RegimeOneWaySuppression, guaranteeGreedy, guaranteeGreedy},
		{"competition", core.GAP{QA0: 0.8, QAB: 0.2, QB0: 0.7, QBA: 0.1},
			AlgoMCGreedy, AlgoMCGreedy, core.RegimeCompetition, guaranteeGreedy, guaranteeGreedy},
		{"pure competition (Theorem 11)", core.PureCompetition(),
			AlgoMCGreedy, AlgoMCGreedy, core.RegimeCompetition, guaranteeTheorem11, guaranteeGreedy},
		{"homogeneous competition (Theorem 11)", core.GAP{QA0: 1, QAB: 0.3, QB0: 1, QBA: 0.2},
			AlgoMCGreedy, AlgoMCGreedy, core.RegimeCompetition, guaranteeTheorem11, guaranteeGreedy},
		{"B blocks A, B ignores A (Theorem 11)", core.GAP{QA0: 1, QAB: 0.3, QB0: 1, QBA: 1},
			AlgoMCGreedy, AlgoMCGreedy, core.RegimeOneWaySuppression, guaranteeTheorem11, guaranteeGreedy},
		{"general mixed", core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.9, QBA: 0.4},
			AlgoMCGreedy, AlgoMCGreedy, core.RegimeGeneral, guaranteeGreedy, guaranteeGreedy},
	}
	for _, tc := range cases {
		self, comp := PlanSelfInfMax(tc.gap), PlanCompInfMax(tc.gap)
		if self.Algorithm != tc.selfAlgo {
			t.Errorf("%s: SelfInfMax routed to %s, want %s", tc.name, self.Algorithm, tc.selfAlgo)
		}
		if comp.Algorithm != tc.compAlgo {
			t.Errorf("%s: CompInfMax routed to %s, want %s", tc.name, comp.Algorithm, tc.compAlgo)
		}
		if self.Regime != tc.regime || comp.Regime != tc.regime {
			t.Errorf("%s: regimes %v/%v, want %v", tc.name, self.Regime, comp.Regime, tc.regime)
		}
		if self.Guarantee != tc.selfGuar || comp.Guarantee != tc.compGuar {
			t.Errorf("%s: guarantees %q/%q, want %q/%q", tc.name, self.Guarantee, comp.Guarantee, tc.selfGuar, tc.compGuar)
		}
		if self.Reason == "" || comp.Reason == "" {
			t.Errorf("%s: plan missing reason", tc.name)
		}
	}
}

func testConfig(k int) Config {
	cfg := NewConfig(k)
	cfg.TIM = rrset.Options{FixedTheta: 2000}
	cfg.EvalRuns = 500
	cfg.GreedyRuns = 200
	cfg.Seed = 7
	return cfg
}

// goldenCandidate pins one candidate of a solve: its name, seeds, Monte-Carlo
// objective under the original GAPs, and θ (0 for a candidate without RR-set
// stats).
type goldenCandidate struct {
	name      string
	seeds     []int32
	objective float64
	theta     int
}

// goldenSolve pins a whole solve result.
type goldenSolve struct {
	seeds      []int32
	chosen     string
	upperRatio float64
	candidates []goldenCandidate
}

func checkGolden(t *testing.T, what string, got *Result, want goldenSolve) {
	t.Helper()
	if !reflect.DeepEqual(got.Seeds, want.seeds) || got.Chosen != want.chosen || got.UpperRatio != want.upperRatio {
		t.Errorf("%s: got seeds %v chosen %q ratio %v, want %v %q %v",
			what, got.Seeds, got.Chosen, got.UpperRatio, want.seeds, want.chosen, want.upperRatio)
	}
	if len(got.Candidates) != len(want.candidates) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got.Candidates), len(want.candidates))
	}
	for i, c := range got.Candidates {
		theta := 0
		if c.Stats != nil {
			theta = c.Stats.Theta
		}
		w := want.candidates[i]
		if c.Name != w.name || !reflect.DeepEqual(c.Seeds, w.seeds) || c.Objective != w.objective || theta != w.theta {
			t.Errorf("%s: candidate %d = {%q %v %v θ=%d}, want {%q %v %v θ=%d}",
				what, i, c.Name, c.Seeds, c.Objective, theta, w.name, w.seeds, w.objective, w.theta)
		}
	}
}

// TestQPlusGolden pins every mutually complementary route — the sandwich
// for strict Q+ and A-indifferent GAPs, the exact route for B-indifferent
// ones, and the IncludeGreedy candidate — to exact float64 bits: seeds,
// chosen candidate, ratio, and every candidate's objective and θ. The graph
// comes from ErdosRenyi and AssignWeightedCascade, which never call the
// math library, and θ is fixed, so the pinned bits hold on every Go
// toolchain. The last three rows are sandwich solves whose lower and upper
// candidates hold the same nodes: as identical slices, with their two
// A-seeds that are also B-seeds (dual seeds) in the same order, and with
// those two in opposite orders.
func TestQPlusGolden(t *testing.T) {
	g := graph.ErdosRenyi(300, 1800, rng.New(31))
	graph.AssignWeightedCascade(g)
	gaps := []core.GAP{
		{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}, // strict Q+
		{QA0: 0.5, QAB: 0.9, QB0: 0.6, QBA: 0.6}, // B-indifferent (exact route)
		{QA0: 0.5, QAB: 0.5, QB0: 0.4, QBA: 0.9}, // A-indifferent, inside Q+
		{QA0: 0.4, QAB: 0.4, QB0: 0.6, QBA: 0.6}, // mutual indifference
		core.ClassicIC(),
		{QA0: 0.7, QAB: 0.95, QB0: 0.6, QBA: 0.9}, // strict Q+, higher adoption
	}
	// k, seed and opp default to 4, 7 and {0, 1, 2} when zero.
	cases := []struct {
		gap        int
		greedy     bool
		k          int
		seed       uint64
		opp        []int32
		self, comp goldenSolve
	}{
		{gap: 0, greedy: false,
			self: goldenSolve{[]int32{1, 2, 0, 250}, "upper", 0.5440675657267402, []goldenCandidate{
				{"lower", []int32{109, 71, 152, 296}, 7.324, 2000},
				{"upper", []int32{1, 2, 0, 250}, 7.988, 2000},
			}},
			comp: goldenSolve{[]int32{50, 195, 1, 2}, "upper", 1.099820143884892, []goldenCandidate{
				{"upper", []int32{50, 195, 1, 2}, 2.446, 2000},
			}}},
		{gap: 0, greedy: true,
			self: goldenSolve{[]int32{1, 2, 228, 195}, "greedy", 0.5440675657267402, []goldenCandidate{
				{"lower", []int32{109, 71, 152, 296}, 7.324, 2000},
				{"upper", []int32{1, 2, 0, 250}, 7.988, 2000},
				{"greedy", []int32{1, 2, 228, 195}, 8.526, 0},
			}},
			comp: goldenSolve{[]int32{2, 0, 1, 123}, "greedy", 1.099820143884892, []goldenCandidate{
				{"upper", []int32{50, 195, 1, 2}, 2.446, 2000},
				{"greedy", []int32{2, 0, 1, 123}, 2.596, 0},
			}}},
		{gap: 1, greedy: false,
			self: goldenSolve{[]int32{2, 71, 1, 152}, "exact", 1, []goldenCandidate{
				{"exact", []int32{2, 71, 1, 152}, 13.81, 2000},
			}},
			comp: goldenSolve{[]int32{2, 1, 0, 50}, "upper", 0.6910223732653639, []goldenCandidate{
				{"upper", []int32{2, 1, 0, 50}, 4.88, 2000},
			}}},
		{gap: 2, greedy: false,
			self: goldenSolve{[]int32{215, 25, 154, 13}, "upper", 1.0023410768953718, []goldenCandidate{
				{"lower", []int32{71, 152, 109, 296}, 10.07, 2000},
				{"upper", []int32{215, 25, 154, 13}, 11.132, 2000},
			}},
			comp: goldenSolve{[]int32{0, 1, 2, 3}, "upper", 0, []goldenCandidate{
				{"upper", []int32{0, 1, 2, 3}, 0, 2000},
			}}},
		{gap: 3, greedy: false,
			self: goldenSolve{[]int32{71, 109, 296, 128}, "exact", 1, []goldenCandidate{
				{"exact", []int32{71, 109, 296, 128}, 8.076, 2000},
			}},
			comp: goldenSolve{[]int32{0, 1, 2, 3}, "upper", 0, []goldenCandidate{
				{"upper", []int32{0, 1, 2, 3}, 0, 2000},
			}}},
		{gap: 4, greedy: false,
			self: goldenSolve{[]int32{28, 55, 54, 215}, "exact", 1, []goldenCandidate{
				{"exact", []int32{28, 55, 54, 215}, 60.832, 2000},
			}},
			comp: goldenSolve{[]int32{0, 1, 2, 3}, "upper", 0, []goldenCandidate{
				{"upper", []int32{0, 1, 2, 3}, 0, 2000},
			}}},
		{gap: 0, k: 2, seed: 6, opp: []int32{220, 255, 1, 281},
			self: goldenSolve{[]int32{1, 220}, "lower", 0.5465041693393201, []goldenCandidate{
				{"lower", []int32{1, 220}, 5.112, 2000},
				{"upper", []int32{1, 220}, 5.112, 2000},
			}},
			comp: goldenSolve{[]int32{220, 112}, "upper", 1.1050656660412757, []goldenCandidate{
				{"upper", []int32{220, 112}, 1.178, 2000},
			}}},
		{gap: 5, k: 3, seed: 6, opp: []int32{92, 222, 13, 52, 198},
			self: goldenSolve{[]int32{222, 71, 92}, "lower", 0.742476929249699, []goldenCandidate{
				{"lower", []int32{222, 71, 92}, 22.206, 2000},
				{"upper", []int32{222, 92, 71}, 22.206, 2000},
			}},
			comp: goldenSolve{[]int32{222, 52, 92}, "upper", 0.9254698639014907, []goldenCandidate{
				{"upper", []int32{222, 52, 92}, 8.568, 2000},
			}}},
		{gap: 0, k: 2, seed: 6, opp: []int32{215, 233, 228},
			self: goldenSolve{[]int32{215, 233}, "upper", 0.5079418157498746, []goldenCandidate{
				{"lower", []int32{233, 215}, 6.048, 2000},
				{"upper", []int32{215, 233}, 6.076, 2000},
			}},
			comp: goldenSolve{[]int32{215, 292}, "upper", 1.0903686087990487, []goldenCandidate{
				{"upper", []int32{215, 292}, 1.834, 2000},
			}}},
	}
	for _, tc := range cases {
		gap := gaps[tc.gap]
		if !gap.Regime().InQPlus() {
			t.Fatalf("gap %d: regime %v not in Q+", tc.gap, gap.Regime())
		}
		k, opp := tc.k, tc.opp
		if k == 0 {
			k = 4
		}
		if opp == nil {
			opp = []int32{0, 1, 2}
		}
		cfg := testConfig(k)
		if tc.seed != 0 {
			cfg.Seed = tc.seed
		}
		cfg.IncludeGreedy = tc.greedy
		cfg.GreedyRuns = 50
		what := fmt.Sprintf("gap %d greedy=%v k=%d seed=%d", tc.gap, tc.greedy, k, cfg.Seed)
		res, err := SolveSelfInfMax(g, gap, opp, cfg)
		if err != nil {
			t.Fatalf("%s: self: %v", what, err)
		}
		checkGolden(t, what+" self", res, tc.self)
		cres, err := SolveCompInfMax(g, gap, opp, cfg)
		if err != nil {
			t.Fatalf("%s: comp: %v", what, err)
		}
		checkGolden(t, what+" comp", cres, tc.comp)
	}
}

// smallTestGraph returns a deterministic-edge 6-node graph cheap enough for
// exhaustive possible-world enumeration (edges have probability 1, so only
// the alpha and tie-break dimensions remain).
func smallTestGraph() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(2, 5, 1)
	return b.MustBuild()
}

// subsets enumerates all k-subsets of [0, n).
func subsets(n, k int) [][]int32 {
	var out [][]int32
	var rec func(start int, cur []int32)
	rec = func(start int, cur []int32) {
		if len(cur) == k {
			out = append(out, append([]int32(nil), cur...))
			return
		}
		for v := start; v < n; v++ {
			rec(v+1, append(cur, int32(v)))
		}
	}
	rec(0, nil)
	return out
}

// TestGreedySelfMatchesExactArgmax pins the greedy fallback against the
// internal/exact enumeration oracle: on a ≤12-node graph, the seeds the
// planner picks for a competitive GAP must score (exactly) within
// Monte-Carlo tolerance of the true argmax over all k-subsets.
func TestGreedySelfMatchesExactArgmax(t *testing.T) {
	g := smallTestGraph()
	gap := core.GAP{QA0: 0.8, QAB: 0.3, QB0: 0.7, QBA: 0.2} // strict competition
	seedsB := []int32{3}
	k := 2
	cfg := testConfig(k)
	cfg.GreedyRuns = 4000
	cfg.EvalRuns = 4000
	res, err := SolveSelfInfMax(g, gap, seedsB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Algorithm != AlgoMCGreedy || res.Plan.Regime != core.RegimeCompetition {
		t.Fatalf("unexpected plan %+v", res.Plan)
	}
	if len(res.Seeds) != k {
		t.Fatalf("got %d seeds, want %d", len(res.Seeds), k)
	}
	best := -1.0
	for _, s := range subsets(g.N(), k) {
		v, xerr := exact.SigmaA(g, gap, s, seedsB)
		if xerr != nil {
			t.Fatal(xerr)
		}
		if v > best {
			best = v
		}
	}
	got, err := exact.SigmaA(g, gap, res.Seeds, seedsB)
	if err != nil {
		t.Fatal(err)
	}
	if got < best-0.25 {
		t.Fatalf("greedy seeds %v score %v exactly; argmax is %v (gap too large)", res.Seeds, got, best)
	}
}

// TestGreedyCompMatchesExactArgmax does the same for CompInfMax in the
// mixed "general" regime (B boosts A, A suppresses B), where the boost is
// positive but no submodular tooling applies.
func TestGreedyCompMatchesExactArgmax(t *testing.T) {
	g := smallTestGraph()
	gap := core.GAP{QA0: 0.3, QAB: 0.9, QB0: 0.8, QBA: 0.3}
	seedsA := []int32{0}
	cfg := testConfig(1)
	cfg.GreedyRuns = 4000
	cfg.EvalRuns = 4000
	res, err := SolveCompInfMax(g, gap, seedsA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Algorithm != AlgoMCGreedy || res.Plan.Regime != core.RegimeGeneral {
		t.Fatalf("unexpected plan %+v", res.Plan)
	}
	exactBoost := func(sb []int32) float64 {
		with, err := exact.SigmaA(g, gap, seedsA, sb)
		if err != nil {
			t.Fatal(err)
		}
		without, err := exact.SigmaA(g, gap, seedsA, nil)
		if err != nil {
			t.Fatal(err)
		}
		return with - without
	}
	best := -1.0
	for _, s := range subsets(g.N(), 1) {
		if v := exactBoost(s); v > best {
			best = v
		}
	}
	got := exactBoost(res.Seeds)
	if got < best-0.25 {
		t.Fatalf("greedy B-seeds %v boost %v exactly; argmax is %v", res.Seeds, got, best)
	}
}

// TestAIndifferentReductionMatchesExactArgmax checks the direct-TIM
// reduction for A-indifferent GAPs outside Q+ (sigma_A independent of the B
// process): the selected seeds must hit the exact enumeration argmax.
func TestAIndifferentReductionMatchesExactArgmax(t *testing.T) {
	g := smallTestGraph()
	gap := core.GAP{QA0: 0.6, QAB: 0.6, QB0: 0.9, QBA: 0.2} // A indifferent, A blocks B
	seedsB := []int32{3}
	k := 2
	cfg := testConfig(k)
	cfg.TIM = rrset.Options{FixedTheta: 20000}
	cfg.EvalRuns = 4000
	res, err := SolveSelfInfMax(g, gap, seedsB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Algorithm != AlgoRRSIMPlus || res.Plan.Regime != core.RegimeOneWaySuppression {
		t.Fatalf("unexpected plan %+v", res.Plan)
	}
	best, bestObj := []int32(nil), -1.0
	for _, s := range subsets(g.N(), k) {
		v, xerr := exact.SigmaA(g, gap, s, seedsB)
		if xerr != nil {
			t.Fatal(xerr)
		}
		if v > bestObj {
			best, bestObj = s, v
		}
	}
	got, err := exact.SigmaA(g, gap, res.Seeds, seedsB)
	if err != nil {
		t.Fatal(err)
	}
	if got < bestObj-0.2 {
		t.Fatalf("reduction seeds %v score %v exactly; argmax %v scores %v", res.Seeds, got, best, bestObj)
	}
}

func TestCompZeroBoostShortCircuit(t *testing.T) {
	g := graph.Star(30, 0.8)
	gap := core.GAP{QA0: 0.5, QAB: 0.5, QB0: 0.9, QBA: 0.2}
	res, err := SolveCompInfMax(g, gap, []int32{1, 2}, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Algorithm != AlgoZeroBoost {
		t.Fatalf("unexpected plan %+v", res.Plan)
	}
	if fmt.Sprint(res.Seeds) != "[0 1 2]" || res.Objective != 0 || res.Chosen != "exact" {
		t.Fatalf("zero-boost result wrong: %+v", res)
	}
	// Cross-check the claim with the Monte-Carlo boost estimator: no B-seed
	// set can move sigma_A when A is indifferent to B.
	with, err := exact.SigmaA(smallTestGraph(), gap, []int32{0}, []int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	without, err := exact.SigmaA(smallTestGraph(), gap, []int32{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := with - without; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("A-indifferent boost not zero: %v vs %v", with, without)
	}
}

// stripTimings returns a copy of r with the wall-clock duration fields of
// every candidate's Stats zeroed, so comparisons see only the deterministic
// content.
func stripTimings(r *Result) *Result {
	out := *r
	out.Candidates = append([]Candidate(nil), r.Candidates...)
	for i, c := range out.Candidates {
		if c.Stats == nil {
			continue
		}
		st := *c.Stats
		st.KPTDuration, st.GenDuration, st.SelectDuration = 0, 0, 0
		out.Candidates[i].Stats = &st
	}
	return &out
}

// TestGreedyWorkerCountIndependence: every route — the greedy fallback, the
// sandwich for both problems, and the exact route — must be bit-for-bit
// identical for every worker count, and the worker count must reach the
// Monte-Carlo scoring that dominates a solve.
func TestGreedyWorkerCountIndependence(t *testing.T) {
	g := graph.PowerLaw(120, 5, 2.16, true, rng.New(9))
	graph.AssignWeightedCascade(g)
	self, comp := SolveSelfInfMax, SolveCompInfMax
	cases := []struct {
		name  string
		solve func(*graph.Graph, core.GAP, []int32, Config) (*Result, error)
		gap   core.GAP
		algo  Algorithm
	}{
		{"greedy self", self, core.PureCompetition(), AlgoMCGreedy},
		{"strict Q+ self", self, core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}, AlgoSandwich},
		{"strict Q+ comp", comp, core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}, AlgoSandwich},
		{"B-indifferent self", self, core.GAP{QA0: 0.5, QAB: 0.9, QB0: 0.6, QBA: 0.6}, AlgoRRSIMPlus},
	}
	for _, tc := range cases {
		var first *Result
		for _, workers := range []int{1, 3, 7} {
			cfg := testConfig(3)
			cfg.TIM.Workers = workers
			if est := cfg.estimator(g, tc.gap); est.Workers != workers {
				t.Fatalf("%s: estimator runs %d workers, want %d", tc.name, est.Workers, workers)
			}
			res, err := tc.solve(g, tc.gap, []int32{5}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan.Algorithm != tc.algo {
				t.Fatalf("%s: routed to %s, want %s", tc.name, res.Plan.Algorithm, tc.algo)
			}
			res = stripTimings(res)
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(res, first) {
				t.Fatalf("%s: workers=%d diverged: %+v vs %+v", tc.name, workers, res, first)
			}
		}
	}
}

func TestGreedyGroundSetCap(t *testing.T) {
	g := graph.Star(50, 0.9)
	gap := core.PureCompetition()
	cfg := testConfig(3)
	cfg.MaxGreedyNodes = 1 // below K: the cap must stretch to K
	res, err := SolveSelfInfMax(g, gap, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("cap below K shrank the seed set: %v", res.Seeds)
	}
	// The ground set is the top-out-degree prefix: the hub (node 0) must be
	// in it and, with no competition from B, must be chosen.
	found := false
	for _, s := range res.Seeds {
		if s == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("hub not selected from capped ground set: %v", res.Seeds)
	}
}

func TestUnsupportedRegimeError(t *testing.T) {
	g := graph.Path(4, 1)
	gap := core.PureCompetition()
	cfg := testConfig(1)
	cfg.MaxGreedyNodes = -1
	for _, solve := range []func() (*Result, error){
		func() (*Result, error) { return SolveSelfInfMax(g, gap, nil, cfg) },
		func() (*Result, error) { return SolveCompInfMax(g, gap, nil, cfg) },
	} {
		_, err := solve()
		var ure *UnsupportedRegimeError
		if !errors.As(err, &ure) {
			t.Fatalf("want UnsupportedRegimeError, got %v", err)
		}
		if ure.Regime != core.RegimeCompetition {
			t.Fatalf("error names regime %v, want competition", ure.Regime)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	g := graph.Path(4, 1)
	if _, err := SolveSelfInfMax(g, core.GAP{QA0: -1}, nil, testConfig(1)); err == nil {
		t.Fatal("invalid GAP accepted")
	}
	if _, err := SolveSelfInfMax(g, core.PureCompetition(), []int32{99}, testConfig(1)); err == nil {
		t.Fatal("out-of-range opposite seed accepted")
	}
	if _, err := SolveCompInfMax(g, core.PureCompetition(), []int32{-1}, testConfig(1)); err == nil {
		t.Fatal("negative opposite seed accepted")
	}
}
