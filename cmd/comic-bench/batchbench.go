package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"comic"
	"comic/internal/experiments"
	"comic/internal/server"
)

// batchBenchRecord is the machine-readable output of the batch experiment:
// one k-sweep (k = 1..K, fixed θ, one master seed) submitted as a single
// /v1/batch request versus the same sweep as K sequential requests. Both
// share one RR-set build through the index — the cache key drops k under
// fixed θ — so the record captures the per-request overhead the batch
// amortizes, plus the build/selection split.
type batchBenchRecord struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	SweepK     int     `json:"sweepK"`
	Seed       uint64  `json:"seed"`
	FixedTheta int     `json:"fixedTheta"`
	// BatchNs is the wall time of the one batch request; SequentialNs the
	// summed wall time of the K sequential requests (fresh server each, so
	// both sweeps start cold).
	BatchNs      int64 `json:"batchNs"`
	SequentialNs int64 `json:"sequentialNs"`
	// Builds/Hits are the RR-index misses/hits after each sweep: the
	// amortization contract is Builds == 1 for a B-indifferent GAP.
	BatchBuilds      int64   `json:"batchBuilds"`
	BatchHits        int64   `json:"batchHits"`
	SequentialBuilds int64   `json:"sequentialBuilds"`
	SequentialHits   int64   `json:"sequentialHits"`
	Seeds            []int32 `json:"seeds"` // the k = SweepK selection
}

// runBatchBench measures the k-sweep amortization at the HTTP layer,
// mirroring what a campaign-planning client does: sweep the seed budget
// over one graph/GAP/opposite configuration and compare spreads.
func runBatchBench(cfg experiments.Config) (*batchBenchRecord, error) {
	name := "Flixster"
	if len(cfg.DatasetNames) > 0 {
		name = cfg.DatasetNames[0]
	}
	d, err := comic.DatasetByName(name, cfg.Scale, 1)
	if err != nil {
		return nil, err
	}
	sweepK := cfg.K
	if sweepK <= 0 {
		sweepK = 10
	}
	theta := cfg.FixedTheta
	if theta <= 0 {
		theta = 20000
	}
	mc := cfg.MCRuns
	if mc <= 0 {
		mc = 1000
	}
	// Make B indifferent to A so each solve needs exactly one collection
	// (the RR-SIM+ exact path): the sweep then costs one cold build plus
	// sweepK−1 warm selections, the contract the batch endpoint exists for.
	gap := d.GAP
	gap.QB0 = gap.QBA
	gapJSON := fmt.Sprintf(`{"qa0":%g,"qab":%g,"qb0":%g,"qba":%g}`, gap.QA0, gap.QAB, gap.QB0, gap.QBA)

	queries := make([]string, sweepK)
	for k := 1; k <= sweepK; k++ {
		queries[k-1] = fmt.Sprintf(
			`{"op":"selfinfmax","dataset":%q,"gap":%s,"k":%d,"seedsB":[1,2,3],"fixedTheta":%d,"evalRuns":%d,"seed":%d}`,
			name, gapJSON, k, theta, mc, cfg.Seed)
	}

	newServer := func() (*server.Server, error) {
		return server.New(server.Config{
			Datasets: map[string]*comic.Dataset{name: d},
			MaxK:     max(500, sweepK),
		})
	}
	post := func(s *server.Server, path, body string) ([]byte, error) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s = %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes(), nil
	}
	lastSeeds := func(raw json.RawMessage) ([]int32, error) {
		var r struct {
			Seeds []int32 `json:"seeds"`
		}
		uerr := json.Unmarshal(raw, &r)
		return r.Seeds, uerr
	}

	rec := &batchBenchRecord{
		Experiment: "batch",
		Dataset:    name,
		Scale:      cfg.Scale,
		SweepK:     sweepK,
		Seed:       cfg.Seed,
		FixedTheta: theta,
	}

	// One /v1/batch request, cold server.
	sBatch, err := newServer()
	if err != nil {
		return nil, err
	}
	defer sBatch.Close()
	t0 := time.Now()
	body, err := post(sBatch, "/v1/batch", `{"queries":[`+strings.Join(queries, ",")+`]}`)
	if err != nil {
		return nil, err
	}
	rec.BatchNs = time.Since(t0).Nanoseconds()
	var batchOut struct {
		Results []struct {
			Status int             `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		} `json:"results"`
	}
	if uerr := json.Unmarshal(body, &batchOut); uerr != nil {
		return nil, uerr
	}
	for i, r := range batchOut.Results {
		if r.Status != http.StatusOK {
			return nil, fmt.Errorf("batch query %d failed: %s", i, r.Error)
		}
	}
	st := sBatch.Index().Stats()
	rec.BatchBuilds, rec.BatchHits = st.Misses, st.Hits
	batchSeeds, err := lastSeeds(batchOut.Results[sweepK-1].Result)
	if err != nil {
		return nil, err
	}
	rec.Seeds = batchSeeds

	// The same sweep as sequential requests, fresh cold server.
	sSeq, err := newServer()
	if err != nil {
		return nil, err
	}
	defer sSeq.Close()
	var seqLast []byte
	t1 := time.Now()
	for _, q := range queries {
		if seqLast, err = post(sSeq, "/v1/selfinfmax", "{"+strings.TrimPrefix(q, `{"op":"selfinfmax",`)); err != nil {
			return nil, err
		}
	}
	rec.SequentialNs = time.Since(t1).Nanoseconds()
	st = sSeq.Index().Stats()
	rec.SequentialBuilds, rec.SequentialHits = st.Misses, st.Hits

	// Determinism parity: the k = sweepK selection must be identical on
	// both paths.
	seqSeeds, err := lastSeeds(seqLast)
	if err != nil {
		return nil, err
	}
	if fmt.Sprint(seqSeeds) != fmt.Sprint(batchSeeds) {
		return nil, fmt.Errorf("batch seeds %v diverged from sequential seeds %v", batchSeeds, seqSeeds)
	}
	return rec, nil
}

func (r *batchBenchRecord) render(w io.Writer) error {
	var werr error
	printf(w, &werr, "batch k-sweep benchmark: %s scale %g, k=1..%d, theta %d, seed %d\n",
		r.Dataset, r.Scale, r.SweepK, r.FixedTheta, r.Seed)
	printf(w, &werr, "  one batch request: %v (%d builds, %d warm hits)\n",
		time.Duration(r.BatchNs), r.BatchBuilds, r.BatchHits)
	printf(w, &werr, "  %d sequential requests: %v (%d builds, %d warm hits)\n",
		r.SweepK, time.Duration(r.SequentialNs), r.SequentialBuilds, r.SequentialHits)
	printf(w, &werr, "  amortization: %.2fx\n", float64(r.SequentialNs)/float64(r.BatchNs))
	printf(w, &werr, "  seeds(k=%d) %v\n", r.SweepK, r.Seeds)
	return werr
}
