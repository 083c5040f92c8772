package main

import (
	"fmt"
	"io"
	"time"

	"comic"
	"comic/internal/experiments"
)

// regimeBenchEntry is one regime's row in the regimes experiment: the GAP
// exercised, the plan the solver chose for it, and the cold-solve outcome.
// Everything but ColdNs is deterministic and diffed bit-for-bit by -check.
type regimeBenchEntry struct {
	Regime    string  `json:"regime"`
	QA0       float64 `json:"qa0"`
	QAB       float64 `json:"qab"`
	QB0       float64 `json:"qb0"`
	QBA       float64 `json:"qba"`
	Algorithm string  `json:"algorithm"`
	Guarantee string  `json:"guarantee"`
	Chosen    string  `json:"chosen"`
	Theta     int     `json:"theta"` // summed over candidates; 0 on greedy routes
	ColdNs    int64   `json:"coldNs"`
	Seeds     []int32 `json:"seeds"`
}

// regimeBenchRecord is the machine-readable output of the regimes
// experiment: one cold SelfInfMax solve per GAP regime on one dataset, with
// the chosen plan recorded, so the planner's routing (and every route's
// seed output) is pinned in the committed trajectory alongside its timing.
type regimeBenchRecord struct {
	Experiment string             `json:"experiment"`
	Dataset    string             `json:"dataset"`
	Scale      float64            `json:"scale"`
	K          int                `json:"k"`
	Seed       uint64             `json:"seed"`
	FixedTheta int                `json:"fixedTheta"`
	EvalRuns   int                `json:"evalRuns"`
	GreedyRuns int                `json:"greedyRuns"`
	Entries    []regimeBenchEntry `json:"entries"`
}

// runRegimesBench solves one SelfInfMax instance per GAP regime — the same
// graph, opposite seeds and budgets throughout, only the GAP moving across
// the partition — and verifies each solve is seed-deterministic (two
// independent cold runs must agree bit-for-bit) and routed to the regime
// the record claims.
func runRegimesBench(cfg experiments.Config) (*regimeBenchRecord, error) {
	name := "Flixster"
	if len(cfg.DatasetNames) > 0 {
		name = cfg.DatasetNames[0]
	}
	d, err := comic.DatasetByName(name, cfg.Scale, 1)
	if err != nil {
		return nil, err
	}
	k := cfg.K
	if k <= 0 {
		k = 5
	}
	theta := cfg.FixedTheta
	if theta <= 0 {
		theta = 20000
	}
	mc := cfg.MCRuns
	if mc <= 0 {
		mc = 1000
	}
	greedyRuns := 100
	seedsB := comic.HighDegreeSeeds(d.Graph, 5)

	// One GAP per regime, all anchored on the dataset's learned values so
	// the rows stay comparable: only the cross-effect signs change.
	base := d.GAP
	gaps := []struct {
		regime string
		gap    comic.GAP
	}{
		{"indifference", comic.GAP{QA0: base.QA0, QAB: base.QA0, QB0: base.QB0, QBA: base.QB0}},
		{"one-way-complementarity", comic.GAP{QA0: base.QA0, QAB: base.QAB, QB0: base.QB0, QBA: base.QB0}},
		{"qplus", base},
		{"one-way-suppression", comic.GAP{QA0: base.QA0, QAB: base.QA0, QB0: 0.9, QBA: 0.2}},
		{"competition", comic.GAP{QA0: 0.8, QAB: 0.2, QB0: 0.7, QBA: 0.1}},
		{"general", comic.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.9, QBA: 0.4}},
	}

	rec := &regimeBenchRecord{
		Experiment: "regimes",
		Dataset:    name,
		Scale:      cfg.Scale,
		K:          k,
		Seed:       cfg.Seed,
		FixedTheta: theta,
		EvalRuns:   mc,
		GreedyRuns: greedyRuns,
	}
	for _, rg := range gaps {
		solve := func() (*comic.SeedResult, error) {
			// A fresh index per run keeps every timing a true cold solve
			// and makes the determinism check cache-independent.
			opts := comic.Options{
				FixedTheta: theta,
				EvalRuns:   mc,
				GreedyRuns: greedyRuns,
				Seed:       cfg.Seed,
				Index:      comic.NewRRIndex(0),
				GraphID:    name,
			}
			return comic.SelfInfMax(d.Graph, rg.gap, seedsB, k, opts)
		}
		t0 := time.Now()
		res, err := solve()
		if err != nil {
			return nil, fmt.Errorf("regime %s: %w", rg.regime, err)
		}
		coldNs := time.Since(t0).Nanoseconds()
		if got := res.Plan.Regime.String(); got != rg.regime {
			return nil, fmt.Errorf("GAP %+v classified as %s, want %s", rg.gap, got, rg.regime)
		}
		again, err := solve()
		if err != nil {
			return nil, fmt.Errorf("regime %s (rerun): %w", rg.regime, err)
		}
		if fmt.Sprint(again.Seeds) != fmt.Sprint(res.Seeds) {
			return nil, fmt.Errorf("regime %s: seed divergence across identical cold solves: %v vs %v",
				rg.regime, res.Seeds, again.Seeds)
		}
		entry := regimeBenchEntry{
			Regime:    rg.regime,
			QA0:       rg.gap.QA0,
			QAB:       rg.gap.QAB,
			QB0:       rg.gap.QB0,
			QBA:       rg.gap.QBA,
			Algorithm: string(res.Plan.Algorithm),
			Guarantee: res.Plan.Guarantee,
			Chosen:    res.Chosen,
			ColdNs:    coldNs,
			Seeds:     res.Seeds,
		}
		for _, c := range res.Candidates {
			if c.Stats != nil {
				entry.Theta += c.Stats.Theta
			}
		}
		rec.Entries = append(rec.Entries, entry)
	}
	return rec, nil
}

func (r *regimeBenchRecord) render(w io.Writer) error {
	var werr error
	printf(w, &werr, "regimes benchmark: %s scale %g, k=%d, theta %d, seed %d\n",
		r.Dataset, r.Scale, r.K, r.FixedTheta, r.Seed)
	for _, e := range r.Entries {
		printf(w, &werr, "  %-24s -> %-9s cold %-12v seeds %v\n",
			e.Regime, e.Algorithm, time.Duration(e.ColdNs), e.Seeds)
	}
	return werr
}
