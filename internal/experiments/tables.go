package experiments

import (
	"fmt"

	"comic/internal/actionlog"
	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/rng"
	"comic/internal/seeds"
	"comic/internal/solver"
	"comic/internal/stats"
)

// --- Table 1: dataset statistics ---

// Table1Result reproduces Table 1.
type Table1Result struct {
	Rows []struct {
		Name      string
		Nodes     int
		Edges     int
		AvgOutDeg float64
		MaxOutDeg int
	}
}

// Table1 regenerates the dataset statistics table.
func Table1(cfg Config) (*Table1Result, error) {
	cfg = cfg.WithDefaults()
	ds, err := cfg.loadDatasets()
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	for _, d := range ds {
		s := d.Describe()
		res.Rows = append(res.Rows, struct {
			Name      string
			Nodes     int
			Edges     int
			AvgOutDeg float64
			MaxOutDeg int
		}{s.Name, s.Nodes, s.Edges, s.AvgOutDeg, s.MaxOutDeg})
	}
	return res, nil
}

// Table renders the result.
func (r *Table1Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: statistics of graph data (synthetic stand-ins)",
		Headers: []string{"dataset", "# nodes", "# edges", "avg out-degree", "max out-degree"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%d", row.Nodes), fmt.Sprintf("%d", row.Edges),
			stats.F2(row.AvgOutDeg), fmt.Sprintf("%d", row.MaxOutDeg))
	}
	return t
}

// --- Tables 2-4: improvement over VanillaIC and Copying ---

// ImprovementCell is one (dataset, parameter) measurement.
type ImprovementCell struct {
	Dataset   string
	Param     float64 // qA|∅ for SelfInfMax rows, qB|∅ for CompInfMax rows
	Ours      float64 // objective of GeneralTIM+SA seeds
	VanillaIC float64
	Copying   float64
	// OverVanilla/OverCopying are percentage improvements.
	OverVanilla float64
	OverCopying float64
}

// ImprovementResult holds one of Tables 2-4.
type ImprovementResult struct {
	Regime   OppositeRegime
	SelfRows []ImprovementCell
	CompRows []ImprovementCell
}

// improvementGAPs returns the synthetic GAP grids of §7.1.
func selfGAPGrid() []core.GAP {
	out := []core.GAP{}
	for _, qa0 := range []float64{0.1, 0.3, 0.5} {
		out = append(out, core.GAP{QA0: qa0, QAB: 0.75, QB0: 0.5, QBA: 0.75})
	}
	return out
}

func compGAPGrid() []core.GAP {
	out := []core.GAP{}
	for _, qb0 := range []float64{0.1, 0.5, 0.8} {
		out = append(out, core.GAP{QA0: 0.1, QAB: 0.9, QB0: qb0, QBA: 0.9})
	}
	return out
}

// improvementExperiment is the engine behind Tables 2, 3 and 4: for every
// dataset and every GAP setting, compare GeneralTIM(+SA) against VanillaIC
// and Copying with the opposite seed set fixed by the regime.
func improvementExperiment(cfg Config, regime OppositeRegime) (*ImprovementResult, error) {
	cfg = cfg.WithDefaults()
	ds, err := cfg.loadDatasets()
	if err != nil {
		return nil, err
	}
	res := &ImprovementResult{Regime: regime}
	for di, d := range ds {
		g := d.Graph
		opp := cfg.oppositeSeeds(g, regime, cfg.Seed+uint64(di))
		vanilla := cfg.vanillaRank(g, cfg.K, cfg.Seed^uint64(1000+di))

		// SelfInfMax rows: opposite set seeds B.
		for _, gap := range selfGAPGrid() {
			sw, err := solver.SolveSelfInfMax(g, gap, opp, cfg.solverConfig())
			if err != nil {
				return nil, fmt.Errorf("%s qA0=%v: %w", d.Name, gap.QA0, err)
			}
			copying := seeds.Copying(g, opp, cfg.K)
			cell := ImprovementCell{
				Dataset:   d.Name,
				Param:     gap.QA0,
				Ours:      cfg.evalSelf(g, gap, sw.Seeds, opp),
				VanillaIC: cfg.evalSelf(g, gap, vanilla, opp),
				Copying:   cfg.evalSelf(g, gap, copying, opp),
			}
			cell.OverVanilla = stats.PercentImprovement(cell.Ours, cell.VanillaIC)
			cell.OverCopying = stats.PercentImprovement(cell.Ours, cell.Copying)
			res.SelfRows = append(res.SelfRows, cell)
		}

		// CompInfMax rows: opposite set seeds A, we pick B seeds.
		for _, gap := range compGAPGrid() {
			sw, err := solver.SolveCompInfMax(g, gap, opp, cfg.solverConfig())
			if err != nil {
				return nil, fmt.Errorf("%s qB0=%v: %w", d.Name, gap.QB0, err)
			}
			copying := seeds.Copying(g, opp, cfg.K)
			cell := ImprovementCell{
				Dataset:   d.Name,
				Param:     gap.QB0,
				Ours:      cfg.evalBoost(g, gap, opp, sw.Seeds),
				VanillaIC: cfg.evalBoost(g, gap, opp, vanilla),
				Copying:   cfg.evalBoost(g, gap, opp, copying),
			}
			cell.OverVanilla = stats.PercentImprovement(cell.Ours, cell.VanillaIC)
			cell.OverCopying = stats.PercentImprovement(cell.Ours, cell.Copying)
			res.CompRows = append(res.CompRows, cell)
		}
	}
	return res, nil
}

// Table2 reproduces Table 2 (opposite seeds: VanillaIC ranks 101-200).
func Table2(cfg Config) (*ImprovementResult, error) {
	return improvementExperiment(cfg, OppositeNext)
}

// Table3 reproduces Table 3 (opposite seeds: random).
func Table3(cfg Config) (*ImprovementResult, error) {
	return improvementExperiment(cfg, OppositeRandom)
}

// Table4 reproduces Table 4 (opposite seeds: VanillaIC top ranks).
func Table4(cfg Config) (*ImprovementResult, error) {
	return improvementExperiment(cfg, OppositeTop)
}

// Tables renders the SelfInfMax and CompInfMax halves.
func (r *ImprovementResult) Tables() []*stats.Table {
	self := &stats.Table{
		Title:   fmt.Sprintf("SelfInfMax: %% improvement of GeneralTIM over baselines (opposite seeds: %v)", r.Regime),
		Headers: []string{"dataset", "qA|0", "ours", "vs VanillaIC", "vs Copying"},
	}
	for _, c := range r.SelfRows {
		self.AddRow(c.Dataset, stats.F2(c.Param), stats.F2(c.Ours),
			stats.Pct(c.OverVanilla), stats.Pct(c.OverCopying))
	}
	comp := &stats.Table{
		Title:   fmt.Sprintf("CompInfMax: %% improvement of GeneralTIM over baselines (opposite seeds: %v)", r.Regime),
		Headers: []string{"dataset", "qB|0", "ours (boost)", "vs VanillaIC", "vs Copying"},
	}
	for _, c := range r.CompRows {
		comp.AddRow(c.Dataset, stats.F2(c.Param), stats.F2(c.Ours),
			stats.Pct(c.OverVanilla), stats.Pct(c.OverCopying))
	}
	return []*stats.Table{self, comp}
}

// --- Tables 5-7: learned GAPs ---

// PairSpec is one item pair of Tables 5-7 with the paper's learned GAPs
// used as synthetic ground truth.
type PairSpec struct {
	Dataset string
	ItemA   string
	ItemB   string
	Truth   core.GAP
}

// PaperPairs lists the item pairs of Tables 5-7 with their learned GAPs.
func PaperPairs() []PairSpec {
	return []PairSpec{
		// Table 5: Flixster movies.
		{"Flixster", "Monsters Inc.", "Shrek", core.GAP{QA0: 0.88, QAB: 0.92, QB0: 0.92, QBA: 0.96}},
		{"Flixster", "Gone in 60 Seconds", "Armageddon", core.GAP{QA0: 0.63, QAB: 0.77, QB0: 0.67, QBA: 0.82}},
		{"Flixster", "Harry Potter: Prisoner of Azkaban", "What a Girl Wants", core.GAP{QA0: 0.85, QAB: 0.84, QB0: 0.66, QBA: 0.67}},
		{"Flixster", "Shrek", "The Fast and The Furious", core.GAP{QA0: 0.92, QAB: 0.94, QB0: 0.80, QBA: 0.79}},
		// Table 6: Douban books.
		{"Douban-Book", "The Unbearable Lightness of Being", "Norwegian Wood", core.GAP{QA0: 0.75, QAB: 0.85, QB0: 0.92, QBA: 0.97}},
		{"Douban-Book", "Harry Potter I", "Harry Potter VI", core.GAP{QA0: 0.99, QAB: 1.0, QB0: 0.97, QBA: 0.98}},
		{"Douban-Book", "Stories of Ming Dynasty III", "Stories of Ming Dynasty VI", core.GAP{QA0: 0.94, QAB: 1.0, QB0: 0.88, QBA: 0.98}},
		{"Douban-Book", "Fortress Besieged", "Love Letter", core.GAP{QA0: 0.89, QAB: 0.91, QB0: 0.82, QBA: 0.83}},
		// Table 7: Douban movies.
		{"Douban-Movie", "Up", "3 Idiots", core.GAP{QA0: 0.92, QAB: 0.94, QB0: 0.92, QBA: 0.93}},
		{"Douban-Movie", "Pulp Fiction", "Leon", core.GAP{QA0: 0.81, QAB: 0.83, QB0: 0.95, QBA: 0.98}},
		{"Douban-Movie", "The Silence of the Lambs", "Inception", core.GAP{QA0: 0.90, QAB: 0.86, QB0: 0.92, QBA: 0.98}},
		{"Douban-Movie", "Fight Club", "Se7en", core.GAP{QA0: 0.84, QAB: 0.89, QB0: 0.89, QBA: 0.95}},
	}
}

// LearnedGAPRow is one learned pair.
type LearnedGAPRow struct {
	Spec    PairSpec
	Learned actionlog.GAPEstimate
}

// Table5to7Result holds the learned-GAP reproduction.
type Table5to7Result struct {
	Rows []LearnedGAPRow
}

// Table5to7 regenerates Tables 5-7: for each paper pair, synthesize an
// action log on the matching dataset using the paper's learned GAPs as
// ground truth, then run the §7.2 estimator on it.
func Table5to7(cfg Config) (*Table5to7Result, error) {
	cfg = cfg.WithDefaults()
	res := &Table5to7Result{}
	cache := map[string]*datasets.Dataset{}
	for i, spec := range PaperPairs() {
		keep := false
		for _, name := range cfg.DatasetNames {
			if name == spec.Dataset {
				keep = true
			}
		}
		if !keep {
			continue
		}
		d := cache[spec.Dataset]
		if d == nil {
			var err error
			d, err = datasets.ByName(spec.Dataset, cfg.Scale, cfg.Seed)
			if err != nil {
				return nil, err
			}
			cache[spec.Dataset] = d
		}
		seedsN := scaled(150, cfg.Scale*4, 20) // organic early adopters
		log := actionlog.Generate(d.Graph, []actionlog.Pair{{
			ItemA: 0, ItemB: 1, GAP: spec.Truth, SeedsA: seedsN, SeedsB: seedsN,
		}}, actionlog.GenerateOptions{}, rng.New(cfg.Seed+uint64(31*i)))
		est, err := actionlog.LearnGAP(log, 0, 1)
		if err != nil {
			return nil, fmt.Errorf("%s / %s: %w", spec.ItemA, spec.ItemB, err)
		}
		res.Rows = append(res.Rows, LearnedGAPRow{Spec: spec, Learned: *est})
	}
	return res, nil
}

// Table renders learned GAPs with confidence intervals.
func (r *Table5to7Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Tables 5-7: learned GAPs (ground truth = paper's learned values)",
		Headers: []string{"dataset", "A", "B", "qA|0", "qA|B", "qB|0", "qB|A"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Spec.Dataset, row.Spec.ItemA, row.Spec.ItemB,
			stats.CI(row.Learned.GAP.QA0, row.Learned.CIA0),
			stats.CI(row.Learned.GAP.QAB, row.Learned.CIAB),
			stats.CI(row.Learned.GAP.QB0, row.Learned.CIB0),
			stats.CI(row.Learned.GAP.QBA, row.Learned.CIBA))
	}
	return t
}

// --- Table 8: sandwich approximation ratios ---

// Table8Row is one GAP setting's σ(Sν)/ν(Sν) per dataset.
type Table8Row struct {
	Setting string
	Ratios  map[string]float64
}

// Table8Result reproduces Table 8.
type Table8Result struct {
	Datasets []string
	Rows     []Table8Row
}

// Table8 computes the sandwich ratio σ(S_ν)/ν(S_ν) for the learned GAPs and
// for the paper's stress-test settings (§7.3).
func Table8(cfg Config) (*Table8Result, error) {
	cfg = cfg.WithDefaults()
	ds, err := cfg.loadDatasets()
	if err != nil {
		return nil, err
	}
	res := &Table8Result{}
	for _, d := range ds {
		res.Datasets = append(res.Datasets, d.Name)
	}

	type setting struct {
		name string
		gap  func(d *datasets.Dataset) core.GAP
		comp bool
	}
	sims := []setting{{"SIM_learn", func(d *datasets.Dataset) core.GAP { return d.GAP }, false}}
	for _, qb0 := range []float64{0.1, 0.5, 0.9} {
		qb0 := qb0
		sims = append(sims, setting{
			fmt.Sprintf("SIM_%.1f", qb0),
			func(*datasets.Dataset) core.GAP {
				return core.GAP{QA0: 0.3, QAB: 0.8, QB0: qb0, QBA: 1}
			}, false})
	}
	cims := []setting{{"CIM_learn", func(d *datasets.Dataset) core.GAP { return d.GAP }, true}}
	for _, qba := range []float64{0.1, 0.5, 0.9} {
		qba := qba
		cims = append(cims, setting{
			fmt.Sprintf("CIM_%.1f", qba),
			func(*datasets.Dataset) core.GAP {
				return core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.1, QBA: qba}
			}, true})
	}

	for _, set := range append(sims, cims...) {
		row := Table8Row{Setting: set.name, Ratios: map[string]float64{}}
		for di, d := range ds {
			gap := set.gap(d)
			opp := cfg.oppositeSeeds(d.Graph, OppositeNext, cfg.Seed+uint64(di))
			var ratio float64
			if set.comp {
				sw, err := solver.SolveCompInfMax(d.Graph, gap, opp, cfg.solverConfig())
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", set.name, d.Name, err)
				}
				ratio = sw.UpperRatio
			} else {
				sw, err := solver.SolveSelfInfMax(d.Graph, gap, opp, cfg.solverConfig())
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", set.name, d.Name, err)
				}
				ratio = sw.UpperRatio
			}
			row.Ratios[d.Name] = ratio
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders Table 8.
func (r *Table8Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Table 8: sandwich approximation σ(Sν)/ν(Sν)",
		Headers: append([]string{"setting"}, r.Datasets...),
	}
	for _, row := range r.Rows {
		cells := []string{row.Setting}
		for _, d := range r.Datasets {
			cells = append(cells, stats.F3(row.Ratios[d]))
		}
		t.AddRow(cells...)
	}
	return t
}
