package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"comic"
	"comic/internal/experiments"
	"comic/internal/graph"
	"comic/internal/rng"
	"comic/internal/rrset"
)

// streamRecord is the machine-readable output of the stream experiment:
// the incremental-maintenance trajectory line. It pins everything the
// repair path promises deterministically — the batch composition, the old
// and new θ, the dirty/reused/regenerated/top-up accounting, the repaired
// collection's checksummable totals, and the top-k seed selection on the
// repaired collection — and records repair-vs-rebuild wall times under the
// warn-only "Ns" convention. A repair that stops being bitwise identical
// to a cold rebuild, drifts in dirtiness, or falls back cannot land
// without rewriting this file.
type streamRecord struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Epsilon    float64 `json:"epsilon"`
	K          int     `json:"k"`
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	// The update batch: the 1% of edges with the smallest influence
	// probabilities — the in-edges of high-degree hubs under WC-style
	// weighting, the edges whose weight re-estimates stream in fastest —
	// each cut by a deterministic factor drawn from the master seed.
	BatchSize int `json:"batchSize"`
	// Repair accounting (deterministic; mirrors rrset.RepairStats).
	OldTheta    int     `json:"oldTheta"`
	NewTheta    int     `json:"newTheta"`
	Dirty       int     `json:"dirty"`
	DirtyFrac   float64 `json:"dirtyFrac"`
	Reused      int     `json:"reused"`
	Regenerated int     `json:"regenerated"`
	TopUp       int     `json:"topUp"`
	Truncated   int     `json:"truncated"`
	// Checksummable shape of the repaired collection and the seed
	// selection it serves, both verified bitwise-equal to a cold rebuild
	// on the patched graph across worker counts 1, 2, and 7.
	TotalNodes int64   `json:"totalNodes"`
	TotalWidth int64   `json:"totalWidth"`
	Seeds      []int32 `json:"seeds"`
	// Wall times (warn-only under -check): one cold build on the patched
	// graph versus one incremental repair of the pre-patch collection.
	ColdBuildNs int64 `json:"coldBuildNs"`
	RepairNs    int64 `json:"repairNs"`
}

// streamBatch builds the standard streaming batch: reweight-cuts over the
// 1% of edges with the smallest probabilities. Under the stand-in's
// WC-style weighting those are the in-edges of the highest-degree hubs —
// exactly the edges whose interaction counts (and therefore weight
// re-estimates) stream in fastest on a live feed. Cuts within (0,1) keep
// every recorded blocked examination replayable, and small-p edges are
// blocked in almost every set that examines them, so the batch leaves the
// overwhelming majority of RR sets untouched. Topology changes (add or
// remove) are deliberately absent: on a stand-in this small every RR set
// scans most hub adjacencies, so a single random insertion dirties over
// half the collection — the integration tests cover those ops; this batch
// pins the high-frequency steady state.
func streamBatch(g *graph.Graph, r *rng.RNG) []graph.EdgeUpdate {
	size := g.M() / 100
	if size < 10 {
		size = 10
	}
	type edgeP struct {
		eid int32
		p   float64
	}
	all := make([]edgeP, g.M())
	for eid := int32(0); eid < int32(g.M()); eid++ {
		all[eid] = edgeP{eid, g.Prob(eid)}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].p < all[j].p || (all[i].p == all[j].p && all[i].eid < all[j].eid)
	})
	seen := make(map[[2]int32]bool)
	var ups []graph.EdgeUpdate
	for _, c := range all {
		if len(ups) >= size {
			break
		}
		u, v := g.EdgeEndpoints(c.eid)
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		ups = append(ups, graph.EdgeUpdate{Op: graph.OpReweight, U: u, V: v, P: c.p * (0.3 + 0.6*r.Float64())})
	}
	return ups
}

// collectionsIdentical verifies bitwise equality of everything Repair
// promises to reproduce: θ, the KPT/λ statistics, the totals, every set's
// root, width and node arena slice, and the full postings index. The
// exploration counters and phase durations are excluded by contract — a
// repair explores less than a cold build.
func collectionsIdentical(got, want *rrset.Collection) error {
	if got.Theta != want.Theta || got.KPT != want.KPT || got.Lambda != want.Lambda {
		return fmt.Errorf("theta/KPT/lambda %d/%v/%v != %d/%v/%v",
			got.Theta, got.KPT, got.Lambda, want.Theta, want.KPT, want.Lambda)
	}
	if got.TotalNodes != want.TotalNodes || got.TotalWidth != want.TotalWidth {
		return fmt.Errorf("totals %d/%d != %d/%d", got.TotalNodes, got.TotalWidth, want.TotalNodes, want.TotalWidth)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("set count %d != %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Root(i) != want.Root(i) || got.Width(i) != want.Width(i) {
			return fmt.Errorf("set %d root/width %d/%d != %d/%d",
				i, got.Root(i), got.Width(i), want.Root(i), want.Width(i))
		}
		a, b := got.NodesOf(i), want.NodesOf(i)
		if len(a) != len(b) {
			return fmt.Errorf("set %d has %d nodes, want %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				return fmt.Errorf("set %d node[%d] = %d != %d", i, j, a[j], b[j])
			}
		}
	}
	gp, wp := got.PostingsIndex(), want.PostingsIndex()
	if (gp == nil) != (wp == nil) {
		return fmt.Errorf("postings presence %v != %v", gp != nil, wp != nil)
	}
	if gp != nil {
		if !slicesEq64(gp.EdgeOff, wp.EdgeOff) || !slicesEq64(gp.NodeOff, wp.NodeOff) ||
			!slicesEq32(gp.Nodes, wp.Nodes) || !slicesEqU32(gp.Edges, wp.Edges) {
			return fmt.Errorf("postings diverge")
		}
	}
	return nil
}

func slicesEq64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func slicesEq32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func slicesEqU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runStreamBench benchmarks incremental RR-set maintenance under a 1%
// edge-update batch on the Flixster stand-in: one ε-driven RR-SIM+
// collection (the kind the serving path builds) is built with postings,
// the batch is applied, and the collection is repaired in place and
// compared field-for-field (arena, postings, θ/KPT/λ — everything Repair
// promises bitwise) against a cold rebuild on the patched graph, across
// worker counts 1, 2, and 7. The run fails on any divergence, on a
// dirtiness fraction ≥ 0.2, or on a threshold fallback.
func runStreamBench(cfg experiments.Config) (*streamRecord, error) {
	name := "Flixster"
	if len(cfg.DatasetNames) > 0 {
		name = cfg.DatasetNames[0]
	}
	d, err := comic.DatasetByName(name, cfg.Scale, 1)
	if err != nil {
		return nil, err
	}
	g := d.Graph
	k := cfg.K
	if k <= 0 {
		k = 10
	}
	oppSize := cfg.OppositeSize
	if oppSize <= 0 {
		oppSize = 10
	}
	rec := &streamRecord{
		Experiment: "stream",
		Dataset:    name,
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		Epsilon:    cfg.Epsilon,
		K:          k,
		Nodes:      g.N(),
		Edges:      g.M(),
	}

	// RR-SIM+ requires one-way complementarity (q_B|∅ = q_B|A), the same
	// bound transformation the serving path's sandwich applies; pin the
	// GAP the way the warmpath sweep does.
	gap := d.GAP
	gap.QB0 = gap.QBA
	req := rrset.CollectionRequest{
		GraphID:  name,
		Graph:    g,
		Kind:     rrset.KindSIMPlus,
		GAP:      gap,
		Opposite: comic.HighDegreeSeeds(g, oppSize),
		K:        k,
		Opts: rrset.Options{
			Epsilon:        cfg.Epsilon,
			FixedTheta:     cfg.FixedTheta,
			RecordPostings: true,
		},
		Seed: cfg.Seed,
	}
	old, err := req.Build()
	if err != nil {
		return nil, err
	}

	ups := streamBatch(g, rng.New(cfg.Seed^0x517eab))
	rec.BatchSize = len(ups)
	patched, delta, err := g.ApplyUpdates(ups)
	if err != nil {
		return nil, err
	}

	newReq := req
	newReq.GraphID = name + "@1"
	newReq.Graph = patched

	// The cold baseline: a from-scratch build on the patched graph.
	t0 := time.Now()
	cold, err := newReq.Build()
	if err != nil {
		return nil, err
	}
	rec.ColdBuildNs = time.Since(t0).Nanoseconds()

	// The incremental path, timed at the default worker count and
	// re-verified at 1, 2, and 7 workers: same bits every time.
	t0 = time.Now()
	repaired, st, err := rrset.Repair(old, newReq, delta, 0.2)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	rec.RepairNs = time.Since(t0).Nanoseconds()
	if err := collectionsIdentical(repaired, cold); err != nil {
		return nil, fmt.Errorf("repaired collection diverges from cold rebuild: %w", err)
	}
	for _, workers := range []int{1, 2, 7} {
		wreq := newReq
		wreq.Opts.Workers = workers
		wcol, _, werr := rrset.Repair(old, wreq, delta, 0.2)
		if werr != nil {
			return nil, fmt.Errorf("repair with %d workers: %w", workers, werr)
		}
		if werr := collectionsIdentical(wcol, cold); werr != nil {
			return nil, fmt.Errorf("repair with %d workers diverges from cold rebuild: %w", workers, werr)
		}
	}

	rec.OldTheta, rec.NewTheta = st.OldTheta, st.NewTheta
	rec.Dirty, rec.DirtyFrac = st.Dirty, st.DirtyFrac
	rec.Reused, rec.Regenerated = st.Reused, st.Regenerated
	rec.TopUp, rec.Truncated = st.TopUp, st.Truncated
	rec.TotalNodes, rec.TotalWidth = repaired.TotalNodes, repaired.TotalWidth
	if st.DirtyFrac >= 0.2 {
		return nil, fmt.Errorf("1%% batch dirtied %.1f%% of RR sets (threshold 20%%)", 100*st.DirtyFrac)
	}
	rec.Seeds, _ = rrset.SelectSeeds(repaired, patched.N(), k)
	coldSeeds, _ := rrset.SelectSeeds(cold, patched.N(), k)
	if fmt.Sprint(rec.Seeds) != fmt.Sprint(coldSeeds) {
		return nil, fmt.Errorf("post-repair seeds %v != cold-rebuild seeds %v", rec.Seeds, coldSeeds)
	}
	return rec, nil
}

// render prints a human-readable summary and, when jsonPath is non-empty,
// writes the record there as indented JSON.
func (r *streamRecord) render(w io.Writer, jsonPath string) error {
	var werr error
	printf(w, &werr, "stream benchmark: %s scale %g (n=%d, m=%d), seed %d\n",
		r.Dataset, r.Scale, r.Nodes, r.Edges, r.Seed)
	printf(w, &werr, "  batch: %d reweight-cuts over the smallest-probability (hub) edges\n", r.BatchSize)
	printf(w, &werr, "  theta %d -> %d; dirty %d (%.2f%%), reused %d, regenerated %d, top-up %d, truncated %d\n",
		r.OldTheta, r.NewTheta, r.Dirty, 100*r.DirtyFrac, r.Reused, r.Regenerated, r.TopUp, r.Truncated)
	speedup := float64(r.ColdBuildNs) / float64(r.RepairNs)
	printf(w, &werr, "  cold rebuild %v -> incremental repair %v (%.1fx)\n",
		time.Duration(r.ColdBuildNs), time.Duration(r.RepairNs), speedup)
	if speedup < 10 {
		printf(w, &werr, "  WARNING: repair speedup below 10x\n")
	}
	printf(w, &werr, "  repaired collection bitwise-equal to cold rebuild at workers 1, 2, 7\n")
	printf(w, &werr, "  seeds %v\n", r.Seeds)
	if werr != nil {
		return werr
	}
	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}
