// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic dataset substitutes, printing the same
// rows/series the paper reports. Absolute numbers differ from the paper's
// testbed; the shapes (who wins, by what order of magnitude, where the
// crossovers sit) are the reproduction target (see DESIGN.md §5).
package experiments

import (
	"fmt"
	"math"

	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/montecarlo"
	"comic/internal/rng"
	"comic/internal/rrset"
	"comic/internal/seeds"
	"comic/internal/solver"
)

// Config controls the scale and budgets of all experiments.
type Config struct {
	// Scale shrinks the Table 1 datasets (1 = full size). Default 0.05,
	// laptop-friendly; cmd/comic-bench -scale 1 reproduces full size.
	Scale float64
	// Seed drives every random choice. Default 42.
	Seed uint64
	// K is the seed budget (paper: 50). 0 scales the paper's value.
	K int
	// OppositeSize is the size of the fixed opposite seed set (paper: 100).
	// 0 scales the paper's value.
	OppositeSize int
	// Epsilon is the TIM accuracy knob (paper: 0.5).
	Epsilon float64
	// MCRuns is the evaluation budget per seed set (paper: 10000).
	// Default 2000.
	MCRuns int
	// FixedTheta, when positive, replaces the ε-driven RR budget, making
	// experiment cost predictable (used by the benchmark harness).
	FixedTheta int
	// MaxTheta caps ε-driven budgets. Default 200000.
	MaxTheta int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// IncludeGreedy enables the Monte-Carlo Greedy baseline (Figure 7a
	// bars, Figure 8's S_σ candidate). Expensive.
	IncludeGreedy bool
	// GreedyRuns is the MC budget per greedy evaluation. Default 100.
	GreedyRuns int
	// DatasetNames restricts the datasets (default: all four).
	DatasetNames []string
}

// WithDefaults fills unset fields with the defaults documented on Config.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.K <= 0 {
		c.K = scaled(50, c.Scale, 5)
	}
	if c.OppositeSize <= 0 {
		c.OppositeSize = scaled(100, c.Scale, 10)
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.5
	}
	if c.MCRuns <= 0 {
		c.MCRuns = 2000
	}
	if c.MaxTheta <= 0 {
		c.MaxTheta = 200000
	}
	if c.GreedyRuns <= 0 {
		c.GreedyRuns = 100
	}
	if len(c.DatasetNames) == 0 {
		c.DatasetNames = datasets.Names()
	}
	return c
}

// scaled shrinks a paper-scale quantity proportionally with a floor.
func scaled(paper int, scale float64, floor int) int {
	v := int(math.Round(float64(paper) * scale))
	if v < floor {
		v = floor
	}
	if v > paper {
		v = paper
	}
	return v
}

func (c Config) timOptions() rrset.Options {
	return rrset.Options{
		Epsilon:    c.Epsilon,
		Ell:        1,
		FixedTheta: c.FixedTheta,
		MaxTheta:   c.MaxTheta,
		Workers:    c.Workers,
	}
}

func (c Config) solverConfig() solver.Config {
	return solver.Config{
		K:          c.K,
		TIM:        c.timOptions(),
		EvalRuns:   c.MCRuns,
		Seed:       c.Seed,
		GreedyRuns: c.GreedyRuns,
	}
}

// simAlgorithms are the two SelfInfMax RR-set generators the paper times
// against each other (Figures 4, 7a and 7b). They sample world-for-world
// identical RR sets; RR-SIM+ skips work RR-SIM does.
var simAlgorithms = []string{"RR-SIM", "RR-SIM+"}

// simConfig is solverConfig with SelfInfMax's RR sets generated by alg, one
// of simAlgorithms.
func (c Config) simConfig(alg string) solver.Config {
	sc := c.solverConfig()
	if alg == "RR-SIM" {
		sc.Collections = rrSIM{}
	}
	return sc
}

// rrSIM is a collection provider that builds every collection directly,
// with the RR-SIM generator where the solver asks for RR-SIM+.
type rrSIM struct{}

func (rrSIM) Collection(req rrset.CollectionRequest) (*rrset.Collection, error) {
	if req.Kind == rrset.KindSIMPlus {
		req.Kind = rrset.KindSIM
	}
	return req.Build()
}

func (c Config) loadDatasets() ([]*datasets.Dataset, error) {
	out := make([]*datasets.Dataset, 0, len(c.DatasetNames))
	for _, name := range c.DatasetNames {
		d, err := datasets.ByName(name, c.Scale, c.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// OppositeRegime selects how the fixed opposite seed set is chosen (§7.1).
type OppositeRegime int

const (
	// OppositeNext: VanillaIC ranks (size+1)..2·size — the paper's
	// "101st-200th" regime (Table 2, and the default for §7.3).
	OppositeNext OppositeRegime = iota
	// OppositeRandom: uniformly random nodes (Table 3).
	OppositeRandom
	// OppositeTop: VanillaIC top ranks (Table 4).
	OppositeTop
)

// String implements fmt.Stringer.
func (r OppositeRegime) String() string {
	switch r {
	case OppositeNext:
		return "vanilla-101-200"
	case OppositeRandom:
		return "random"
	case OppositeTop:
		return "vanilla-top"
	}
	return fmt.Sprintf("regime(%d)", int(r))
}

// vanillaRank computes the VanillaIC seed ranking of length k: TIM under
// classic IC, ignoring the NLA.
func (c Config) vanillaRank(g *graph.Graph, k int, seed uint64) []int32 {
	col := rrset.BuildCollection(rrset.NewIC(g), g.M(), k, c.timOptions(), seed)
	sel, _ := rrset.SelectSeeds(col, k)
	return sel
}

// oppositeSeeds realizes a regime on graph g.
func (c Config) oppositeSeeds(g *graph.Graph, regime OppositeRegime, seed uint64) []int32 {
	size := c.OppositeSize
	switch regime {
	case OppositeRandom:
		return seeds.Random(g, size, rng.New(seed^0xadd))
	case OppositeTop:
		return c.vanillaRank(g, size, seed^0x70b)
	default:
		rank := c.vanillaRank(g, 2*size, seed^0x70b)
		if len(rank) <= size {
			return rank
		}
		return rank[size:]
	}
}

// evalSelf estimates σ_A(seedsA, seedsB) under gap.
func (c Config) evalSelf(g *graph.Graph, gap core.GAP, seedsA, seedsB []int32) float64 {
	return montecarlo.New(g, gap).SpreadA(seedsA, seedsB, c.MCRuns, c.Seed^0x5e1f)
}

// evalBoost estimates the CompInfMax objective with paired worlds.
func (c Config) evalBoost(g *graph.Graph, gap core.GAP, seedsA, seedsB []int32) float64 {
	if len(seedsB) == 0 {
		return 0
	}
	b, _ := montecarlo.New(g, gap).BoostPaired(seedsA, seedsB, c.MCRuns, c.Seed^0xb0057)
	return b
}
