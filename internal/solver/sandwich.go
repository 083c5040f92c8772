package solver

import (
	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rrset"
)

// This file is the Sandwich Approximation route of §6.4, which the planner
// takes for the mutually complementary GAPs no exact route covers: when the
// Com-IC objective is not submodular (general mutual complementarity),
// maximize submodular lower/upper bound functions obtained by perturbing one
// GAP, then keep whichever candidate seed set scores best under the
// *original* objective (Eq. 5). Theorem 9 turns the ratio σ(S_ν)/ν(S_ν) into
// a data-dependent approximation factor, reported in Table 8 of the paper.

// selfBounds returns the lower (μ) and upper (ν) bound GAPs for SelfInfMax
// under mutual complementarity: μ lowers q_{B|A} to q_{B|∅} and ν raises
// q_{B|∅} to q_{B|A}; both make B indifferent to A, the setting where RR-SIM
// is exact (Theorem 7). Monotonicity of σ_A in each GAP (Theorem 10)
// guarantees μ ≤ σ ≤ ν pointwise.
func selfBounds(gap core.GAP) (lower, upper core.GAP) {
	lower, upper = gap, gap
	lower.QBA = gap.QB0
	upper.QB0 = gap.QBA
	return lower, upper
}

// compUpper returns the upper-bound GAP for CompInfMax: q_{B|A} raised to 1,
// the setting where RR-CIM is exact (Theorem 8). No useful submodular lower
// bound is known for CompInfMax (§6.4).
func compUpper(gap core.GAP) core.GAP {
	gap.QBA = 1
	return gap
}

// sandwichSelf solves SelfInfMax for a Q+ GAP under which B is not
// indifferent to A: GeneralTIM on the two submodular bound instances,
// candidate selection by Monte-Carlo under the original GAPs. Both
// candidates are scored on the same stream, so when core.SameRuns holds for
// them (the same nodes, their dual seeds in the same order) every run of
// upper's estimate would repeat lower's: upper reuses lower's objective, and
// the solve runs two estimates (lower and ν) instead of three.
func sandwichSelf(g *graph.Graph, gap core.GAP, seedsB []int32, cfg Config) (*Result, error) {
	lowerGAP, upperGAP := selfBounds(gap)
	// The two bound subproblems are independent (separate GAPs, separate
	// master-seed streams), so overlap them end to end — build and seed
	// selection both: on a cold cache this halves the dominant cost of the
	// solve on multi-core machines, and the result is identical either way.
	// A panic on the upper goroutine is re-raised on the caller's stack, so
	// callers' recover boundaries keep working as they did when the work ran
	// inline.
	var upperSeeds []int32
	var upperStats *rrset.Stats
	var upperErr error
	var upperPanic any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { upperPanic = recover() }()
		upperSeeds, upperStats, upperErr = cfg.selectSeeds(g, rrset.KindSIMPlus, upperGAP, seedsB, cfg.Seed+1)
	}()
	lowerSeeds, lowerStats, err := cfg.selectSeeds(g, rrset.KindSIMPlus, lowerGAP, seedsB, cfg.Seed)
	<-done
	if upperPanic != nil {
		panic(upperPanic)
	}
	if err != nil {
		return nil, err
	}
	if upperErr != nil {
		return nil, upperErr
	}

	est := cfg.estimator(g, gap)
	score := cfg.selfScore(est, seedsB)
	lower := Candidate{Name: "lower", Seeds: lowerSeeds, Objective: score(lowerSeeds), Stats: lowerStats}
	upper := Candidate{Name: "upper", Seeds: upperSeeds, Objective: lower.Objective, Stats: upperStats}
	if !core.SameRuns(lowerSeeds, upperSeeds, seedsB) {
		upper.Objective = score(upperSeeds)
	}
	cands := []Candidate{lower, upper}
	if cfg.IncludeGreedy {
		cands = append(cands, greedyCandidate(g, cfg.selfGreedyObjective(est, seedsB), score, cfg.K, nil))
	}
	res := pickBest(cands)

	// σ(S_ν)/ν(S_ν): numerator under original GAPs, denominator under ν.
	nu := spreadA(cfg.estimator(g, upperGAP), upperSeeds, seedsB, cfg.EvalRuns, cfg.Seed^upperStream)
	if nu > 0 {
		res.UpperRatio = res.Candidates[1].Objective / nu
	}
	return res, nil
}

// sandwichComp solves CompInfMax for a Q+ GAP: GeneralTIM with RR-CIM on the
// q_{B|A}→1 upper bound, candidates scored by the paired-world boost
// estimator under the original GAPs.
func sandwichComp(g *graph.Graph, gap core.GAP, seedsA []int32, cfg Config) (*Result, error) {
	upperGAP := compUpper(gap)
	upperSeeds, upperStats, err := cfg.selectSeeds(g, rrset.KindCIM, upperGAP, seedsA, cfg.Seed)
	if err != nil {
		return nil, err
	}

	est := cfg.estimator(g, gap)
	score := cfg.compScore(est, seedsA)
	cands := []Candidate{
		{Name: "upper", Seeds: upperSeeds, Objective: score(upperSeeds), Stats: upperStats},
	}
	if cfg.IncludeGreedy {
		cands = append(cands, greedyCandidate(g, cfg.compGreedyObjective(est, seedsA), score, cfg.K, nil))
	}
	res := pickBest(cands)

	nu, _ := cfg.estimator(g, upperGAP).BoostPaired(seedsA, upperSeeds, cfg.EvalRuns, cfg.Seed^upperStream)
	if nu > 0 {
		res.UpperRatio = res.Candidates[0].Objective / nu
	}
	return res, nil
}
