// Package solver is the regime-aware planner/executor for the two Com-IC
// seed-selection problems. The paper's Q+ machinery (RR-SIM+, RR-CIM, the
// sandwich approximation of §6.4) covers only mutually complementary GAPs,
// but the Com-IC model itself spans the whole GAP space — competition,
// one-way suppression, indifference, mutual complementarity — and Chen &
// Zhang's complete submodularity characterization of the comparative IC
// model says exactly which regimes admit fast submodular maximization.
//
// The planner classifies a request's GAP into its core.Regime and routes it
// to the best algorithm available for that regime:
//
//   - Direct TIM (exact RR sets, (1−1/e−ε) w.h.p.) when the regime makes RR
//     sets exact: B indifferent to A with q_{A|∅} ≤ q_{A|B} (Theorem 7), or
//     A indifferent to B — then σ_A does not depend on the B process at all,
//     so the instance reduces to a B-indifferent one by setting
//     q_{B|A} := q_{B|∅} — even under competition.
//   - The sandwich approximation of §6.4 (sandwich.go) for the remaining
//     mutually complementary GAPs, with its Theorem 9 data-dependent factor.
//   - A CELF-accelerated Monte-Carlo greedy on the original objective for
//     the regimes with no submodular structure (competition, one-way
//     suppression of A, mixed general). A heuristic end to end — no
//     approximation guarantee exists there, and CELF's lazy evaluation is
//     only exact under the submodularity these regimes lack — but a
//     principled one: it is the paper's Greedy baseline with a
//     degree-capped ground set. One cell of those regimes is the exception:
//     with q_{A|∅} = q_{B|∅} = 1, σ_A is monotone (Theorem 3) and
//     submodular (Theorem 11), so there the greedy keeps its (1−1/e)
//     factor over the capped ground set, up to Monte-Carlo error.
//   - A closed-form shortcut for CompInfMax when A is indifferent to B: the
//     boost objective is identically zero, so any k nodes are exactly
//     optimal and no simulation needs to run.
//
// Every route is deterministic in the master seed and bit-for-bit
// independent of worker count, like the rest of the codebase; a golden test
// pins every Q+ route's output bits.
package solver

import (
	"fmt"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/montecarlo"
	"comic/internal/rrset"
	"comic/internal/seeds"
)

// Algorithm names one of the planner's executable strategies. The values
// are wire-stable: they appear in API responses and benchmark records.
type Algorithm string

const (
	// AlgoRRSIMPlus is direct GeneralTIM over exact RR-SIM+ sets.
	AlgoRRSIMPlus Algorithm = "rr-sim+"
	// AlgoSandwich is the §6.4 sandwich approximation: submodular bound
	// instances solved by TIM, candidates scored under the original GAPs.
	AlgoSandwich Algorithm = "sandwich"
	// AlgoMCGreedy is the CELF-accelerated Monte-Carlo greedy on the
	// original (non-submodular) objective, over a degree-capped ground
	// set. Note that CELF's lazy-evaluation shortcut is itself part of the
	// heuristic here: without submodularity a buried stale gain can hide a
	// node whose marginal gain grew, so the lazy greedy may pick a
	// different (occasionally worse) set than the naive greedy would —
	// the trade the paper's own Greedy baseline makes, at 1/k-th the cost.
	AlgoMCGreedy Algorithm = "mc-greedy"
	// AlgoZeroBoost is the CompInfMax shortcut for A-indifferent GAPs:
	// the boost is identically zero, so the lowest-id k nodes are returned
	// without running a single simulation.
	AlgoZeroBoost Algorithm = "zero-boost"
)

// Problem names for Plan.Problem.
const (
	ProblemSelfInfMax = "selfinfmax"
	ProblemCompInfMax = "compinfmax"
)

// Plan records how the planner routed one request: the GAP's regime, the
// algorithm chosen for it, the guarantee that algorithm carries there, and a
// one-line reason. It is attached to every Result and surfaced verbatim in
// server responses.
type Plan struct {
	Problem   string
	Regime    core.Regime
	Algorithm Algorithm
	// Guarantee states the approximation contract of the chosen algorithm
	// in this regime ("(1-1/e-eps) w.h.p.", the data-dependent sandwich
	// factor, "exact", or "heuristic").
	Guarantee string
	// Reason is a one-line human explanation of the routing decision.
	Reason string
}

const (
	guaranteeTIM       = "(1-1/e-eps) w.h.p. (submodular objective, exact RR sets)"
	guaranteeSandwich  = "data-dependent sandwich factor (Theorem 9)"
	guaranteeGreedy    = "heuristic (objective not submodular in this regime)"
	guaranteeTheorem11 = "(1-1/e) over the capped ground set, up to Monte-Carlo error (monotone submodular objective, Theorems 3 and 11)"
	guaranteeExact     = "exact (objective identically zero for every seed set)"
)

// PlanSelfInfMax classifies gap and plans the SelfInfMax route. The
// returned Algorithm assumes an enabled greedy fallback (see
// Config.MaxGreedyNodes).
func PlanSelfInfMax(gap core.GAP) Plan {
	p := Plan{Problem: ProblemSelfInfMax, Regime: gap.Regime()}
	switch {
	case gap.BIndifferentToA() && gap.QA0 <= gap.QAB:
		p.Algorithm = AlgoRRSIMPlus
		p.Guarantee = guaranteeTIM
		p.Reason = "B is indifferent to A, so RR sets are exact (Theorem 7); TIM runs directly, no sandwich"
	case gap.MutuallyComplementary():
		// The A-indifference reduction below is applied only outside Q+:
		// inside, the sandwich's lower/upper candidate race is the
		// historical (and pinned) behavior.
		p.Algorithm = AlgoSandwich
		p.Guarantee = guaranteeSandwich
		p.Reason = "mutually complementary GAPs: submodular lower/upper bound instances, best candidate under the original objective"
	case gap.AIndifferentToB():
		p.Algorithm = AlgoRRSIMPlus
		p.Guarantee = guaranteeTIM
		p.Reason = "A is indifferent to B, so sigma_A ignores the B process entirely; solved as the equivalent B-indifferent instance"
	case gap.QA0 == 1 && gap.QB0 == 1:
		// Here q_{A|B} < 1 and q_{B|A} <= 1: strict competition, or its
		// boundary where B ignores A. Theorem 11 covers both, and
		// TestTheorem11P2HomogeneousCompetition checks both world by world.
		p.Algorithm = AlgoMCGreedy
		p.Guarantee = guaranteeTheorem11
		p.Reason = "q_{A|0} = q_{B|0} = 1: sigma_A is monotone (Theorem 3) and submodular (Theorem 11), so the CELF Monte-Carlo greedy on the original objective keeps the greedy's (1-1/e) factor"
	default:
		p.Algorithm = AlgoMCGreedy
		p.Guarantee = guaranteeGreedy
		p.Reason = "no submodular structure in this regime; CELF Monte-Carlo greedy on the original objective"
	}
	return p
}

// PlanCompInfMax classifies gap and plans the CompInfMax route.
func PlanCompInfMax(gap core.GAP) Plan {
	p := Plan{Problem: ProblemCompInfMax, Regime: gap.Regime()}
	switch {
	case gap.MutuallyComplementary():
		p.Algorithm = AlgoSandwich
		p.Guarantee = guaranteeSandwich
		p.Reason = "mutually complementary GAPs: RR-CIM on the q_{B|A}->1 upper bound (Theorem 8)"
	case gap.AIndifferentToB():
		p.Algorithm = AlgoZeroBoost
		p.Guarantee = guaranteeExact
		p.Reason = "A is indifferent to B, so no B seed set can change sigma_A: the boost is identically zero"
	default:
		p.Algorithm = AlgoMCGreedy
		p.Guarantee = guaranteeGreedy
		p.Reason = "no submodular structure in this regime; CELF Monte-Carlo greedy on the paired-world boost objective"
	}
	return p
}

// UnsupportedRegimeError reports a request whose regime has no enabled
// algorithm (the Monte-Carlo greedy fallback was disabled by
// Config.MaxGreedyNodes < 0). Servers map it to HTTP 400, naming the
// regime so the client can see what it registered.
type UnsupportedRegimeError struct {
	Problem string
	Regime  core.Regime
}

func (e *UnsupportedRegimeError) Error() string {
	return fmt.Sprintf("solver: %s has no enabled algorithm for regime %q (Monte-Carlo greedy fallback disabled)", e.Problem, e.Regime)
}

// Config tunes the planner and its strategies.
type Config struct {
	// K is the seed-set cardinality constraint.
	K int
	// TIM configures GeneralTIM for the exact and bound subproblems. Its
	// Workers also bounds Monte-Carlo scoring on every route.
	TIM rrset.Options
	// EvalRuns is the Monte-Carlo budget for scoring each candidate under
	// the original GAPs (paper: 10K; default 10000).
	EvalRuns int
	// Seed drives all randomness.
	Seed uint64
	// IncludeGreedy additionally runs the Monte-Carlo greedy candidate on
	// Q+ sandwich routes (Eq. 5's S_σ). Expensive; off by default. The
	// greedy fallback for non-submodular regimes runs regardless.
	IncludeGreedy bool
	// GreedyRuns is the Monte-Carlo budget per greedy objective evaluation
	// (default 200).
	GreedyRuns int
	// MaxGreedyNodes caps the greedy fallback's ground set to the
	// highest-out-degree nodes (never below K). 0 means the default of
	// 512 — greedy cost scales with ground-set × GreedyRuns simulations,
	// so an uncapped fallback on a large graph is a denial-of-service
	// vector for a serving deployment. Negative disables the fallback
	// entirely: regimes that need it fail with UnsupportedRegimeError.
	MaxGreedyNodes int
	// Collections, when non-nil, supplies the RR-set collections of the
	// exact and bound subproblems (typically a shared cache such as
	// internal/server.Index). nil builds each collection directly. The
	// selected seeds are identical either way; only where the RR sets
	// come from changes.
	Collections rrset.CollectionProvider
	// GraphID names the graph in collection cache keys. Empty falls back
	// to graph pointer identity (collision-free, but cache hits then
	// require the same *graph.Graph instance). Ignored when Collections
	// is nil.
	GraphID string
}

// NewConfig returns a Config with the paper's defaults.
func NewConfig(k int) Config {
	return Config{K: k, EvalRuns: 10000, GreedyRuns: 200}
}

// DefaultMaxGreedyNodes is the ground-set cap applied when
// Config.MaxGreedyNodes is 0.
const DefaultMaxGreedyNodes = 512

func (c Config) withDefaults() Config {
	if c.EvalRuns <= 0 {
		c.EvalRuns = 10000
	}
	if c.GreedyRuns <= 0 {
		c.GreedyRuns = 200
	}
	if c.MaxGreedyNodes == 0 {
		c.MaxGreedyNodes = DefaultMaxGreedyNodes
	}
	return c
}

// Offsets XORed into the master seed to give each kind of Monte-Carlo
// estimate in a solve its own random streams.
const (
	// evalStream scores candidates under the original GAPs.
	evalStream = 0xe7a1
	// greedyStream drives the greedy's objective evaluations.
	greedyStream = 0x9eedd
	// upperStream estimates ν(S_ν), the denominator of UpperRatio.
	upperStream = 0xfaceb
)

// Candidate is one seed set a route considered.
type Candidate struct {
	Name      string // "lower", "upper", "greedy", or "exact"
	Seeds     []int32
	Objective float64 // MC estimate under the ORIGINAL GAPs
	Stats     *rrset.Stats
}

// Result is the outcome of a planned solve: the chosen seeds, every
// candidate considered, and the Plan that produced them.
type Result struct {
	Seeds      []int32
	Objective  float64
	Chosen     string
	Candidates []Candidate
	// UpperRatio is σ(S_ν)/ν(S_ν), the computable part of Theorem 9's
	// data-dependent factor (Table 8): 1 on the exact routes, 0 on the
	// greedy fallback or when ν(S_ν) is 0.
	UpperRatio float64
	Plan       Plan
}

// pickBest returns the result of Eq. 5: the best-scoring candidate (the
// first on a tie) becomes the answer.
func pickBest(cands []Candidate) *Result {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Objective > best.Objective {
			best = c
		}
	}
	return &Result{Seeds: best.Seeds, Objective: best.Objective, Chosen: best.Name, Candidates: cands}
}

// estimator returns a Monte-Carlo estimator for gap on g whose parallelism
// is bounded like RR-set generation's. Estimates do not depend on it.
func (c Config) estimator(g *graph.Graph, gap core.GAP) *montecarlo.Estimator {
	est := montecarlo.New(g, gap)
	est.Workers = c.TIM.Workers
	return est
}

// spreadA runs one EvalRuns-sized SelfInfMax estimate. Tests wrap it to
// count the estimates a solve runs.
var spreadA = (*montecarlo.Estimator).SpreadA

// selfScore returns σ_A(·, seedsB) at the evaluation budget: the score
// every SelfInfMax candidate is ranked by.
func (c Config) selfScore(est *montecarlo.Estimator, seedsB []int32) func([]int32) float64 {
	return func(s []int32) float64 {
		return spreadA(est, s, seedsB, c.EvalRuns, c.Seed^evalStream)
	}
}

// compScore returns the paired-world boost σ_A(seedsA, ·) − σ_A(seedsA, ∅)
// at the evaluation budget: the score every CompInfMax candidate is ranked
// by.
func (c Config) compScore(est *montecarlo.Estimator, seedsA []int32) func([]int32) float64 {
	return func(s []int32) float64 {
		if len(s) == 0 {
			return 0
		}
		b, _ := est.BoostPaired(seedsA, s, c.EvalRuns, c.Seed^evalStream)
		return b
	}
}

// selfGreedyObjective is σ_A(·, seedsB) at the greedy budget.
func (c Config) selfGreedyObjective(est *montecarlo.Estimator, seedsB []int32) func([]int32) float64 {
	return func(s []int32) float64 {
		return est.SpreadA(s, seedsB, c.GreedyRuns, c.Seed^greedyStream)
	}
}

// compGreedyObjective is the paired-world boost at the greedy budget. Every
// greedy evaluation shares the fixed S_A, worlds and seed, so the S_B = ∅
// baseline cascades are computed once up front instead of inside each of
// the greedy's evaluations. Results are bit-identical to calling
// BoostPaired per evaluation.
func (c Config) compGreedyObjective(est *montecarlo.Estimator, seedsA []int32) func([]int32) float64 {
	baseline := est.PairedBaselineA(seedsA, c.GreedyRuns, c.Seed^greedyStream)
	return func(s []int32) float64 {
		if len(s) == 0 {
			return 0
		}
		b, _ := est.BoostPairedFromBaseline(seedsA, s, baseline, c.GreedyRuns, c.Seed^greedyStream)
		return b
	}
}

// selectSeeds resolves one exact or bound subproblem's RR-set collection
// through the configured provider (or a direct build when none is set) and
// selects the top-K seeds over it.
func (c Config) selectSeeds(g *graph.Graph, kind rrset.Kind, gap core.GAP, opposite []int32, seed uint64) ([]int32, *rrset.Stats, error) {
	col, err := rrset.Obtain(c.Collections, rrset.CollectionRequest{
		GraphID:  c.GraphID,
		Graph:    g,
		Kind:     kind,
		GAP:      gap,
		Opposite: opposite,
		K:        c.K,
		Opts:     c.TIM,
		Seed:     seed,
	})
	if err != nil {
		return nil, nil, err
	}
	seeds, st := rrset.SelectSeeds(col, c.K)
	return seeds, st, nil
}

// admit validates a request and refuses a plan whose algorithm is
// disabled.
func (c Config) admit(g *graph.Graph, gap core.GAP, what string, opposite []int32, plan Plan) error {
	if err := gap.Validate(); err != nil {
		return err
	}
	for _, v := range opposite {
		if v < 0 || v >= int32(g.N()) {
			return fmt.Errorf("solver: %s node %d out of range [0,%d)", what, v, g.N())
		}
	}
	if plan.Algorithm == AlgoMCGreedy && c.MaxGreedyNodes < 0 {
		return &UnsupportedRegimeError{Problem: plan.Problem, Regime: plan.Regime}
	}
	return nil
}

// SolveSelfInfMax plans and solves Problem 1 for any GAP in the model's
// domain.
func SolveSelfInfMax(g *graph.Graph, gap core.GAP, seedsB []int32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plan := PlanSelfInfMax(gap)
	if err := cfg.admit(g, gap, "seedsB", seedsB, plan); err != nil {
		return nil, err
	}
	var res *Result
	var err error
	switch plan.Algorithm {
	case AlgoSandwich:
		res, err = sandwichSelf(g, gap, seedsB, cfg)
	case AlgoRRSIMPlus:
		res, err = solveExactTIM(g, gap, seedsB, cfg)
	default: // AlgoMCGreedy
		est := cfg.estimator(g, gap)
		res = solveGreedy(g, cfg.selfGreedyObjective(est, seedsB), cfg.selfScore(est, seedsB), cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Plan = plan
	return res, nil
}

// SolveCompInfMax plans and solves Problem 2 for any GAP in the model's
// domain.
func SolveCompInfMax(g *graph.Graph, gap core.GAP, seedsA []int32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plan := PlanCompInfMax(gap)
	if err := cfg.admit(g, gap, "seedsA", seedsA, plan); err != nil {
		return nil, err
	}
	var res *Result
	var err error
	switch plan.Algorithm {
	case AlgoSandwich:
		res, err = sandwichComp(g, gap, seedsA, cfg)
	case AlgoZeroBoost:
		k := max(min(cfg.K, g.N()), 0)
		sel := make([]int32, k)
		for i := range sel {
			sel[i] = int32(i)
		}
		res = pickBest([]Candidate{{Name: "exact", Seeds: sel, Objective: 0}})
		// The "bound" here is the objective itself: the selection is
		// exactly optimal, mirroring the exact route's ratio of 1.
		res.UpperRatio = 1
	default: // AlgoMCGreedy
		est := cfg.estimator(g, gap)
		res = solveGreedy(g, cfg.compGreedyObjective(est, seedsA), cfg.compScore(est, seedsA), cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Plan = plan
	return res, nil
}

// solveExactTIM is the direct (sandwich-free) route: one exact RR-SIM+
// collection, one max-coverage selection, one Monte-Carlo scoring pass
// under the original GAPs.
func solveExactTIM(g *graph.Graph, gap core.GAP, seedsB []int32, cfg Config) (*Result, error) {
	// The GAP the RR sets are built under: already B-indifferent in the
	// Theorem 7 case; otherwise (A indifferent to B) the B process is
	// irrelevant to sigma_A, so q_{B|A} := q_{B|0} yields an equivalent
	// instance RR-SIM accepts. The reduction changes nothing the RR sets
	// can observe — with q_{A|0} == q_{A|B}, a root's adoption test is
	// the same whether or not it is B-adopted.
	buildGAP := gap
	if !gap.BIndifferentToA() {
		buildGAP.QBA = buildGAP.QB0
	}
	sel, st, err := cfg.selectSeeds(g, rrset.KindSIMPlus, buildGAP, seedsB, cfg.Seed)
	if err != nil {
		return nil, err
	}
	score := cfg.selfScore(cfg.estimator(g, gap), seedsB)
	res := pickBest([]Candidate{{Name: "exact", Seeds: sel, Objective: score(sel), Stats: st}})
	res.UpperRatio = 1
	return res, nil
}

// greedyCandidate runs the CELF Monte-Carlo greedy on objective over the
// ground set (nil: every node) and scores its pick.
func greedyCandidate(g *graph.Graph, objective, score func([]int32) float64, k int, ground []int32) Candidate {
	sel := seeds.Greedy(g, objective, k, ground)
	return Candidate{Name: "greedy", Seeds: sel, Objective: score(sel)}
}

// solveGreedy runs the CELF Monte-Carlo greedy fallback over a ground set
// capped to the highest-out-degree nodes (never fewer than K, so the result
// always has K seeds when the graph does).
func solveGreedy(g *graph.Graph, objective, score func([]int32) float64, cfg Config) *Result {
	var ground []int32
	if cfg.MaxGreedyNodes < g.N() {
		ground = graph.TopKByDegree(g, max(cfg.MaxGreedyNodes, cfg.K))
	}
	return pickBest([]Candidate{greedyCandidate(g, objective, score, cfg.K, ground)})
}
