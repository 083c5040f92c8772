// Command comic-bench regenerates the paper's tables and figures, and
// benchmarks the serving-path solve.
//
// Usage:
//
//	comic-bench -exp table2 -scale 0.05
//	comic-bench -exp all -scale 0.05 -mc 2000
//	comic-bench -exp fig7b -scale 0.02
//	comic-bench -exp selfinfmax -scale 0.02 -json BENCH_selfinfmax.json
//	comic-bench -exp batch -scale 0.02 -json BENCH_batch.json
//	comic-bench -exp restore -scale 0.02 -json BENCH_restore.json
//	comic-bench -exp regimes -scale 0.02 -json BENCH_regimes.json
//	comic-bench -exp cluster -scale 0.02 -mc 200 -json BENCH_cluster.json
//	comic-bench -check fresh.json BENCH_selfinfmax.json
//
// Experiment ids: table1, table2, table3, table4, table5-7, table8, fig4,
// fig5, fig6, fig7a, fig7b, fig8, selfinfmax, batch, restore, regimes,
// cluster, all. At -scale 1 the datasets match the paper's Table 1 sizes
// (slow on a laptop); the default 0.05 reproduces the shapes in minutes.
//
// The selfinfmax experiment times one cold and one warm SelfInfMax solve
// against a shared RR-set index and, with -json FILE, writes a
// machine-readable record (θ, KPT/generation/selection durations, resident
// collection bytes, cold/warm ns per solve) so the serving path's
// performance trajectory can be tracked PR-over-PR; CI runs it as a smoke
// test on the small synthetic graph.
//
// The batch experiment runs a SelfInfMax k-sweep (k = 1..K, the shape of
// the paper's §7.3 seed-budget experiments) through POST /v1/batch and as
// K sequential requests, verifying both return identical seeds and
// recording the wall-time and build/hit amortization; CI runs it alongside
// the selfinfmax record.
//
// The restore experiment exercises the persistent state layer: cold solve
// on a stateful server, SaveState snapshot, simulated restart, warm solve
// from the restored RR-set index. The run fails if the restored seeds
// diverge from the cold ones or the restored server builds any collection.
//
// The regimes experiment runs one cold SelfInfMax solve per GAP regime —
// the full partition the regime-aware planner routes on — recording the
// chosen plan (regime, algorithm, guarantee), the selected seeds, and the
// cold timing per regime, and failing on any seed divergence between two
// identical cold solves. The committed BENCH_regimes.json pins every
// route's output, so a routing change can never land silently.
//
// The cluster experiment stands up a three-node in-process comic-serve
// cluster over a shared snapshot store and pins the sharded serving path:
// consistent-hash placement (the ownership maps are deterministic and
// committed), proxied-solve byte parity against the owner's answer,
// router singleflight collapse, busy-time throughput scaling — the run
// fails below 2.5x on three nodes versus one — and a zero-rebuild
// rebalance: when a member leaves, its graphs' warm cache entries move to
// the survivors through the store, with the published/adopted entry
// counts pinned and the survivors' collection-build count pinned at zero.
//
// -check compares a freshly generated record (first argument) against the
// committed trajectory file (second argument): deterministic fields —
// seeds, θ, build counts, exact byte sizes — must match bit-for-bit, while
// timing fields (keys ending in "Ns") only warn, since shared CI runners
// are noisy. CI runs every benchmark experiment and checks each against
// its committed BENCH_*.json, so the performance trajectory in the repo
// can never silently drift from what the code actually does.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"comic"
	"comic/internal/experiments"
	"comic/internal/stats"
)

// benches maps each benchmark experiment id to its runner.
var benches = map[string]func(experiments.Config) (record, error){
	"selfinfmax": func(cfg experiments.Config) (record, error) { return runSelfInfMaxBench(cfg) },
	"batch":      func(cfg experiments.Config) (record, error) { return runBatchBench(cfg) },
	"restore":    func(cfg experiments.Config) (record, error) { return runRestoreBench(cfg) },
	"regimes":    func(cfg experiments.Config) (record, error) { return runRegimesBench(cfg) },
	"cluster":    func(cfg experiments.Config) (record, error) { return runClusterBench(cfg) },
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (table1..table8, fig4..fig8, selfinfmax, batch, restore, regimes, cluster, all)")
		scale      = flag.Float64("scale", 0.05, "dataset scale in (0, 1]")
		seed       = flag.Uint64("seed", 42, "master random seed")
		mcRuns     = flag.Int("mc", 2000, "Monte-Carlo evaluation runs per seed set")
		k          = flag.Int("k", 0, "seed budget (0 = paper's 50, scaled)")
		opp        = flag.Int("opposite", 0, "opposite seed set size (0 = paper's 100, scaled)")
		epsilon    = flag.Float64("epsilon", 0.5, "TIM epsilon")
		fixedTheta = flag.Int("theta", 0, "fixed RR-set budget (0 = epsilon-driven)")
		greedy     = flag.Bool("greedy", false, "include the Monte-Carlo Greedy baseline (slow)")
		dsets      = flag.String("datasets", "", "comma-separated dataset subset (default all)")
		jsonOut    = flag.String("json", "", "write the benchmark record to this file")
		check      = flag.Bool("check", false, "compare a fresh benchmark JSON (first arg) against a committed trajectory file (second arg); timings warn-only")
	)
	flag.Parse()

	if *check {
		args := flag.Args()
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: comic-bench -check FRESH.json COMMITTED.json")
			os.Exit(2)
		}
		if err := runCheck(args[0], args[1], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "comic-bench: check: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{
		Scale:         *scale,
		Seed:          *seed,
		MCRuns:        *mcRuns,
		K:             *k,
		OppositeSize:  *opp,
		Epsilon:       *epsilon,
		FixedTheta:    *fixedTheta,
		IncludeGreedy: *greedy,
	}
	if *dsets != "" {
		cfg.DatasetNames = strings.Split(*dsets, ",")
	}

	if runBench, ok := benches[*exp]; ok {
		rec, err := runBench(cfg)
		if err == nil {
			err = rec.render(os.Stdout)
		}
		if err == nil && *jsonOut != "" {
			err = writeRecord(*jsonOut, rec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "comic-bench: %s: %v\n", *exp, err)
			os.Exit(1)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "table2", "table3", "table4", "table5-7", "table8",
			"fig4", "fig5", "fig6", "fig7a", "fig7b", "fig8"}
	}
	for _, id := range ids {
		start := time.Now()
		tables, err := run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comic-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "comic-bench: render: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// benchRecord is the machine-readable output of the selfinfmax experiment:
// one line of the serving path's performance trajectory, written as
// BENCH_selfinfmax.json by CI so regressions show up PR-over-PR.
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	K          int     `json:"k"`
	Seed       uint64  `json:"seed"`
	Epsilon    float64 `json:"epsilon"`
	FixedTheta int     `json:"fixedTheta,omitempty"`
	// Theta sums the RR-set budgets over the sandwich candidates; the
	// phase durations sum the same way (a non-B-indifferent GAP needs a
	// lower and an upper collection).
	Theta    int   `json:"theta"`
	KPTNs    int64 `json:"kptNs"`
	GenNs    int64 `json:"genNs"`
	SelectNs int64 `json:"selectNs"`
	// CollectionBytes is the exact resident size of the built collections
	// (Collection.Bytes over the shared index).
	CollectionBytes int64 `json:"collectionBytes"`
	// ColdNs is one solve against an empty index (build + select + MC
	// evaluation); WarmNs is the same solve answered from the warm index.
	// WarmNs still times the full round trip — Monte-Carlo evaluation
	// included — so SelectWarmNs separates out the seed-selection part of
	// the warm solve (the sum of the warm candidates' SelectDuration).
	ColdNs       int64   `json:"coldNs"`
	WarmNs       int64   `json:"warmNs"`
	SelectWarmNs int64   `json:"selectWarmNs"`
	Seeds        []int32 `json:"seeds"`
}

// runSelfInfMaxBench times one cold and one warm SelfInfMax solve through
// the RR-set index, mirroring what the query server does per request.
func runSelfInfMaxBench(cfg experiments.Config) (*benchRecord, error) {
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
		k = 10
	}
	oppSize := cfg.OppositeSize
	if oppSize <= 0 {
		oppSize = 10
	}
	mc := cfg.MCRuns
	if mc <= 0 {
		mc = 1000
	}
	seedsB := comic.HighDegreeSeeds(d.Graph, oppSize)

	idx := comic.NewRRIndex(0)
	opts := comic.Options{
		Epsilon:    cfg.Epsilon,
		FixedTheta: cfg.FixedTheta,
		MaxTheta:   cfg.MaxTheta,
		EvalRuns:   mc,
		Seed:       cfg.Seed,
		Index:      idx,
		GraphID:    name,
	}
	t0 := time.Now()
	res, err := comic.SelfInfMax(d.Graph, d.GAP, seedsB, k, opts)
	if err != nil {
		return nil, err
	}
	coldNs := time.Since(t0).Nanoseconds()
	t1 := time.Now()
	warmRes, err := comic.SelfInfMax(d.Graph, d.GAP, seedsB, k, opts)
	if err != nil {
		return nil, err
	}
	warmNs := time.Since(t1).Nanoseconds()
	var selectWarmNs int64
	for i, c := range warmRes.Candidates {
		if res.Candidates[i].Name != c.Name || fmt.Sprint(res.Candidates[i].Seeds) != fmt.Sprint(c.Seeds) {
			return nil, fmt.Errorf("warm candidate %q diverged from cold", c.Name)
		}
		if c.Stats != nil {
			selectWarmNs += c.Stats.SelectDuration.Nanoseconds()
		}
	}

	rec := &benchRecord{
		Experiment:   "selfinfmax",
		Dataset:      name,
		Scale:        cfg.Scale,
		K:            k,
		Seed:         cfg.Seed,
		Epsilon:      cfg.Epsilon,
		FixedTheta:   cfg.FixedTheta,
		ColdNs:       coldNs,
		WarmNs:       warmNs,
		SelectWarmNs: selectWarmNs,
		Seeds:        res.Seeds,
	}
	for _, c := range res.Candidates {
		if c.Stats == nil {
			continue
		}
		rec.Theta += c.Stats.Theta
		rec.KPTNs += c.Stats.KPTDuration.Nanoseconds()
		rec.GenNs += c.Stats.GenDuration.Nanoseconds()
		rec.SelectNs += c.Stats.SelectDuration.Nanoseconds()
	}
	rec.CollectionBytes = idx.Stats().ResidentBytes
	return rec, nil
}

func (r *benchRecord) render(w io.Writer) error {
	var werr error
	printf(w, &werr, "selfinfmax benchmark: %s scale %g, k=%d, seed %d\n", r.Dataset, r.Scale, r.K, r.Seed)
	printf(w, &werr, "  theta %d across candidates; kpt %v, gen %v, select %v\n",
		r.Theta, time.Duration(r.KPTNs), time.Duration(r.GenNs), time.Duration(r.SelectNs))
	printf(w, &werr, "  resident collections: %d bytes (exact)\n", r.CollectionBytes)
	printf(w, &werr, "  cold solve %v, warm solve %v (%.1fx); warm selection alone %v\n",
		time.Duration(r.ColdNs), time.Duration(r.WarmNs), float64(r.ColdNs)/float64(r.WarmNs),
		time.Duration(r.SelectWarmNs))
	printf(w, &werr, "  seeds %v\n", r.Seeds)
	return werr
}

func run(id string, cfg experiments.Config) ([]*stats.Table, error) {
	switch id {
	case "table1":
		r, err := experiments.Table1(cfg)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	case "table2":
		r, err := experiments.Table2(cfg)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	case "table3":
		r, err := experiments.Table3(cfg)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	case "table4":
		r, err := experiments.Table4(cfg)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	case "table5-7", "table5", "table6", "table7":
		r, err := experiments.Table5to7(cfg)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	case "table8":
		r, err := experiments.Table8(cfg)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	case "fig4":
		r, err := experiments.Figure4(cfg, nil)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	case "fig5":
		r, err := experiments.Figure5(cfg)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	case "fig6":
		r, err := experiments.Figure6(cfg)
		if err != nil {
			return nil, err
		}
		t := r.Table()
		baselines := make([]string, 0, len(r.BaselineSpread))
		for name := range r.BaselineSpread {
			baselines = append(baselines, name)
		}
		sort.Strings(baselines)
		for _, name := range baselines {
			t.AddRow(name, "sigmaA(SA, empty)", "-", stats.F2(r.BaselineSpread[name]))
		}
		return []*stats.Table{t}, nil
	case "fig7a":
		r, err := experiments.Figure7Time(cfg)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	case "fig7b":
		r, err := experiments.Figure7Scale(cfg, nil)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	case "fig8":
		r, err := experiments.Figure8(cfg)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}
