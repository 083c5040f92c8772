package experiments

import (
	"fmt"
	"time"

	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/rng"
	"comic/internal/seeds"
	"comic/internal/solver"
	"comic/internal/stats"
)

// --- Figure 4: effect of ε ---

// Figure4Point is one (algorithm, ε) measurement.
type Figure4Point struct {
	Dataset   string
	Algorithm string // "RR-SIM", "RR-SIM+", "RR-CIM"
	Epsilon   float64
	Seconds   float64
	Objective float64 // spread for SIM rows, boost for CIM rows
	Theta     int
}

// Figure4Result holds the ε sweep.
type Figure4Result struct {
	Points []Figure4Point
}

// Figure4 sweeps ε and records running time and solution quality for
// RR-SIM, RR-SIM+ and RR-CIM on Flixster and Douban-Book (§7.3, Figure 4).
// Quality is expected to stay flat while time falls by orders of magnitude.
func Figure4(cfg Config, epsilons []float64) (*Figure4Result, error) {
	cfg = cfg.WithDefaults()
	cfg.FixedTheta = 0 // the sweep is about ε-driven budgets
	if len(epsilons) == 0 {
		epsilons = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	}
	names := []string{"Flixster", "Douban-Book"}
	res := &Figure4Result{}
	for _, name := range names {
		if !containsString(cfg.DatasetNames, name) {
			continue
		}
		d, err := datasets.ByName(name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		opp := cfg.oppositeSeeds(d.Graph, OppositeNext, cfg.Seed)
		for _, eps := range epsilons {
			runCfg := cfg
			runCfg.Epsilon = eps
			for _, alg := range simAlgorithms {
				t0 := time.Now()
				sw, err := solver.SolveSelfInfMax(d.Graph, d.GAP, opp, runCfg.simConfig(alg))
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, Figure4Point{
					Dataset: d.Name, Algorithm: alg, Epsilon: eps,
					Seconds:   time.Since(t0).Seconds(),
					Objective: sw.Objective,
					Theta:     sw.Candidates[len(sw.Candidates)-1].Stats.Theta,
				})
			}
			t0 := time.Now()
			sw, err := solver.SolveCompInfMax(d.Graph, d.GAP, opp, runCfg.solverConfig())
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Figure4Point{
				Dataset: d.Name, Algorithm: "RR-CIM", Epsilon: eps,
				Seconds:   time.Since(t0).Seconds(),
				Objective: sw.Objective,
				Theta:     sw.Candidates[0].Stats.Theta,
			})
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *Figure4Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 4: effect of ε on running time and quality",
		Headers: []string{"dataset", "algorithm", "eps", "theta", "seconds", "objective"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Dataset, p.Algorithm, stats.F2(p.Epsilon),
			fmt.Sprintf("%d", p.Theta), stats.F3(p.Seconds), stats.F2(p.Objective))
	}
	return t
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// --- Figures 5 and 6: quality vs seed-set size ---

// CurvePoint is one (dataset, algorithm, k) quality measurement.
type CurvePoint struct {
	Dataset   string
	Algorithm string
	K         int
	Value     float64
}

// CurveResult holds a Figure 5 or Figure 6 family of curves.
type CurveResult struct {
	Title  string
	Points []CurvePoint
	// BaselineSpread holds σ_A(S_A, ∅) per dataset for Figure 6 captions.
	BaselineSpread map[string]float64
}

// algorithmOrder fixes the emission order of the per-algorithm curves:
// CurvePoints and rendered tables must not depend on map iteration.
var algorithmOrder = []string{"RR", "HighDegree", "PageRank", "Random"}

// kGrid returns the paper's {1,10,20,30,40,50} scaled to kMax.
func kGrid(kMax int) []int {
	if kMax <= 5 {
		grid := make([]int, kMax)
		for i := range grid {
			grid[i] = i + 1
		}
		return grid
	}
	return []int{1, kMax / 5, 2 * kMax / 5, 3 * kMax / 5, 4 * kMax / 5, kMax}
}

// Figure5 reproduces A-spread vs |S_A| for RR (GeneralTIM+SA) against
// HighDegree, PageRank and Random under each dataset's learned GAPs.
func Figure5(cfg Config) (*CurveResult, error) {
	cfg = cfg.WithDefaults()
	ds, err := cfg.loadDatasets()
	if err != nil {
		return nil, err
	}
	res := &CurveResult{Title: "Figure 5: A-spread vs |S_A| (SelfInfMax)"}
	for di, d := range ds {
		g := d.Graph
		opp := cfg.oppositeSeeds(g, OppositeNext, cfg.Seed+uint64(di))
		sw, err := solver.SolveSelfInfMax(g, d.GAP, opp, cfg.solverConfig())
		if err != nil {
			return nil, err
		}
		algorithms := map[string][]int32{
			"RR":         sw.Seeds,
			"HighDegree": seeds.HighDegree(g, cfg.K),
			"PageRank":   seeds.PageRank(g, cfg.K),
			"Random":     seeds.Random(g, cfg.K, rng.New(cfg.Seed^uint64(55+di))),
		}
		for _, k := range kGrid(cfg.K) {
			for _, alg := range algorithmOrder {
				sel := algorithms[alg]
				prefix := sel
				if k < len(sel) {
					prefix = sel[:k]
				}
				res.Points = append(res.Points, CurvePoint{
					Dataset: d.Name, Algorithm: alg, K: k,
					Value: cfg.evalSelf(g, d.GAP, prefix, opp),
				})
			}
		}
	}
	return res, nil
}

// Figure6 reproduces boost vs |S_B| for RR (GeneralTIM with RR-CIM + SA)
// against the baselines, and records σ_A(S_A, ∅) per dataset.
func Figure6(cfg Config) (*CurveResult, error) {
	cfg = cfg.WithDefaults()
	ds, err := cfg.loadDatasets()
	if err != nil {
		return nil, err
	}
	res := &CurveResult{
		Title:          "Figure 6: boost in A-spread vs |S_B| (CompInfMax)",
		BaselineSpread: map[string]float64{},
	}
	for di, d := range ds {
		g := d.Graph
		opp := cfg.oppositeSeeds(g, OppositeNext, cfg.Seed+uint64(di))
		res.BaselineSpread[d.Name] = cfg.evalSelf(g, d.GAP, opp, nil)
		sw, err := solver.SolveCompInfMax(g, d.GAP, opp, cfg.solverConfig())
		if err != nil {
			return nil, err
		}
		algorithms := map[string][]int32{
			"RR":         sw.Seeds,
			"HighDegree": seeds.HighDegree(g, cfg.K),
			"PageRank":   seeds.PageRank(g, cfg.K),
			"Random":     seeds.Random(g, cfg.K, rng.New(cfg.Seed^uint64(66+di))),
		}
		for _, k := range kGrid(cfg.K) {
			for _, alg := range algorithmOrder {
				sel := algorithms[alg]
				prefix := sel
				if k < len(sel) {
					prefix = sel[:k]
				}
				res.Points = append(res.Points, CurvePoint{
					Dataset: d.Name, Algorithm: alg, K: k,
					Value: cfg.evalBoost(g, d.GAP, opp, prefix),
				})
			}
		}
	}
	return res, nil
}

// Table renders a curve family.
func (r *CurveResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   r.Title,
		Headers: []string{"dataset", "algorithm", "k", "value"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Dataset, p.Algorithm, fmt.Sprintf("%d", p.K), stats.F2(p.Value))
	}
	return t
}

// --- Figure 7a: running time on the four datasets ---

// TimeRow is one (dataset, algorithm) timing.
type TimeRow struct {
	Dataset   string
	Algorithm string
	Seconds   float64
}

// Figure7TimeResult holds the running-time comparison.
type Figure7TimeResult struct {
	Rows []TimeRow
}

// Figure7Time reproduces Figure 7a: running times of Greedy (optional,
// cfg.IncludeGreedy) and the three RR algorithms on the four datasets. The
// reproduction target is the ordering Greedy >> RR-CIM > RR-SIM > RR-SIM+.
func Figure7Time(cfg Config) (*Figure7TimeResult, error) {
	cfg = cfg.WithDefaults()
	ds, err := cfg.loadDatasets()
	if err != nil {
		return nil, err
	}
	res := &Figure7TimeResult{}
	for di, d := range ds {
		g := d.Graph
		opp := cfg.oppositeSeeds(g, OppositeNext, cfg.Seed+uint64(di))
		timeIt := func(name string, f func() error) error {
			t0 := time.Now()
			if err := f(); err != nil {
				return err
			}
			res.Rows = append(res.Rows, TimeRow{Dataset: d.Name, Algorithm: name, Seconds: time.Since(t0).Seconds()})
			return nil
		}
		for _, alg := range simAlgorithms {
			if err := timeIt(alg, func() error {
				_, err := solver.SolveSelfInfMax(g, d.GAP, opp, cfg.simConfig(alg))
				return err
			}); err != nil {
				return nil, err
			}
		}
		if err := timeIt("RR-CIM", func() error {
			_, err := solver.SolveCompInfMax(g, d.GAP, opp, cfg.solverConfig())
			return err
		}); err != nil {
			return nil, err
		}
		if cfg.IncludeGreedy {
			if err := timeIt("Greedy(SIM)", func() error {
				f := seeds.SelfInfMaxObjective(g, d.GAP, opp, cfg.GreedyRuns, cfg.Seed)
				seeds.Greedy(g, f, cfg.K, nil)
				return nil
			}); err != nil {
				return nil, err
			}
			if err := timeIt("Greedy(CIM)", func() error {
				f := seeds.CompInfMaxObjective(g, d.GAP, opp, cfg.GreedyRuns, cfg.Seed)
				seeds.Greedy(g, f, cfg.K, nil)
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// Table renders Figure 7a.
func (r *Figure7TimeResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 7a: running time (seconds)",
		Headers: []string{"dataset", "algorithm", "seconds"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Algorithm, stats.F3(row.Seconds))
	}
	return t
}

// --- Figure 7b: scalability on power-law graphs ---

// ScalePoint is one (algorithm, n) timing.
type ScalePoint struct {
	Algorithm string
	Nodes     int
	Seconds   float64
}

// Figure7ScaleResult holds the scalability sweep.
type Figure7ScaleResult struct {
	Points []ScalePoint
}

// Figure7Scale reproduces Figure 7b: RR algorithm running time on power-law
// graphs of growing size (paper: 0.2M..1M nodes; sizes are multiplied by
// cfg.Scale). The reproduction target is near-linear growth.
func Figure7Scale(cfg Config, sizes []int) (*Figure7ScaleResult, error) {
	cfg = cfg.WithDefaults()
	if len(sizes) == 0 {
		base := []int{200000, 400000, 600000, 800000, 1000000}
		for _, b := range base {
			sizes = append(sizes, scaled(b, cfg.Scale, 500))
		}
	}
	// Flixster GAPs per the paper.
	gap := core.GAP{QA0: 0.88, QAB: 0.92, QB0: 0.92, QBA: 0.96}
	res := &Figure7ScaleResult{}
	for si, n := range sizes {
		g := datasets.Scalability(n, cfg.Seed+uint64(si))
		opp := seeds.Random(g, cfg.K, rng.New(cfg.Seed^uint64(si)))
		for _, alg := range simAlgorithms {
			t0 := time.Now()
			if _, err := solver.SolveSelfInfMax(g, gap, opp, cfg.simConfig(alg)); err != nil {
				return nil, err
			}
			res.Points = append(res.Points, ScalePoint{Algorithm: alg, Nodes: n, Seconds: time.Since(t0).Seconds()})
		}
		t0 := time.Now()
		if _, err := solver.SolveCompInfMax(g, gap, opp, cfg.solverConfig()); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ScalePoint{Algorithm: "RR-CIM", Nodes: n, Seconds: time.Since(t0).Seconds()})
	}
	return res, nil
}

// Table renders Figure 7b.
func (r *Figure7ScaleResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 7b: scalability on power-law graphs",
		Headers: []string{"algorithm", "nodes", "seconds"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Algorithm, fmt.Sprintf("%d", p.Nodes), stats.F3(p.Seconds))
	}
	return t
}

// --- Figure 8: sandwich stress test ---

// Figure8Row compares the spreads achieved by S_σ, S_μ, S_ν under one GAP
// stress setting, all evaluated under the original σ.
type Figure8Row struct {
	Problem  string // "SIM" or "CIM"
	Varied   float64
	SigmaS   float64 // σ(S_σ) — greedy on the original objective
	SigmaMu  float64 // σ(S_μ) — 0 for CIM (no lower bound)
	SigmaNu  float64 // σ(S_ν)
	RelError float64 // max |σ(Sσ)-σ(S·)| / σ(Sσ)
}

// Figure8Result holds the stress test.
type Figure8Result struct {
	Dataset string
	Rows    []Figure8Row
}

// Figure8 reproduces the SA stress test on Flixster: vary qB|∅ (SIM, with
// qB|A = 0.96) or qB|A (CIM, with qB|∅ = 0.1) and compare the spread of the
// candidate seed sets under the original objective. The paper's headline is
// that the relative error stays tiny even in adversarial settings.
func Figure8(cfg Config) (*Figure8Result, error) {
	cfg = cfg.WithDefaults()
	d, err := datasets.ByName("Flixster", cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	g := d.Graph
	opp := cfg.oppositeSeeds(g, OppositeNext, cfg.Seed)
	res := &Figure8Result{Dataset: d.Name}

	sc := cfg.solverConfig()
	sc.IncludeGreedy = cfg.IncludeGreedy
	// SelfInfMax stress rows.
	for _, qb0 := range []float64{0.1, 0.5, 0.9} {
		gap := core.GAP{QA0: d.GAP.QA0, QAB: d.GAP.QAB, QB0: qb0, QBA: 0.96}
		sw, err := solver.SolveSelfInfMax(g, gap, opp, sc)
		if err != nil {
			return nil, err
		}
		row := Figure8Row{Problem: "SIM", Varied: qb0}
		for _, c := range sw.Candidates {
			switch c.Name {
			case "lower":
				row.SigmaMu = c.Objective
			case "upper":
				row.SigmaNu = c.Objective
			case "greedy":
				row.SigmaS = c.Objective
			}
		}
		if row.SigmaS == 0 {
			row.SigmaS = sw.Objective // without greedy, Sσ ≈ best candidate
		}
		row.RelError = relError(row.SigmaS, row.SigmaMu, row.SigmaNu)
		res.Rows = append(res.Rows, row)
	}
	// CompInfMax stress rows.
	for _, qba := range []float64{0.1, 0.5, 0.9} {
		gap := core.GAP{QA0: d.GAP.QA0, QAB: d.GAP.QAB, QB0: 0.1, QBA: qba}
		sw, err := solver.SolveCompInfMax(g, gap, opp, sc)
		if err != nil {
			return nil, err
		}
		row := Figure8Row{Problem: "CIM", Varied: qba}
		for _, c := range sw.Candidates {
			switch c.Name {
			case "upper":
				row.SigmaNu = c.Objective
			case "greedy":
				row.SigmaS = c.Objective
			}
		}
		if row.SigmaS == 0 {
			row.SigmaS = sw.Objective
		}
		row.RelError = relError(row.SigmaS, row.SigmaNu)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func relError(sigma float64, others ...float64) float64 {
	if sigma == 0 {
		return 0
	}
	max := 0.0
	for _, o := range others {
		if o == 0 {
			continue
		}
		d := sigma - o
		if d < 0 {
			d = -d
		}
		if d/sigma > max {
			max = d / sigma
		}
	}
	return max
}

// Table renders Figure 8.
func (r *Figure8Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("Figure 8: sandwich stress test on %s", r.Dataset),
		Headers: []string{"problem", "varied GAP", "sigma(S_sigma)", "sigma(S_mu)", "sigma(S_nu)", "rel. error"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Problem, stats.F2(row.Varied), stats.F2(row.SigmaS),
			stats.F2(row.SigmaMu), stats.F2(row.SigmaNu), stats.F3(row.RelError))
	}
	return t
}
