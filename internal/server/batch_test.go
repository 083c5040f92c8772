package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"comic"
	"comic/internal/server"
)

// batchResp mirrors the /v1/batch response body in tests.
type batchResp struct {
	Results []struct {
		Op     string          `json:"op"`
		Status int             `json:"status"`
		Error  *errBody        `json:"error"`
		Result json.RawMessage `json:"result"`
	} `json:"results"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// bIndifferentGAP is the Flixster GAP with q_{B|∅} raised to q_{B|A}: B is
// indifferent to A, so a SelfInfMax solve needs exactly one RR-set
// collection (the exact path) instead of the lower/upper sandwich pair —
// which is what lets the k-sweep tests pin "exactly 1 build".
const bIndifferentGAP = `{"qa0":0.88,"qab":0.92,"qb0":0.96,"qba":0.96}`

// TestBatchKSweepSingleBuild is the tentpole's amortization contract: a
// k=1..10 sweep over one (graph, GAP, opposite, fixed θ, seed)
// configuration performs exactly one collection build — the other nine
// queries are warm selections over the shared collection.
func TestBatchKSweepSingleBuild(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	t.Cleanup(s.Close)

	var queries []string
	for k := 1; k <= 10; k++ {
		queries = append(queries, fmt.Sprintf(
			`{"op":"selfinfmax","dataset":"Flixster","gap":%s,"k":%d,"seedsB":[1,2],"fixedTheta":2000,"evalRuns":200,"seed":7}`,
			bIndifferentGAP, k))
	}
	body := fmt.Sprintf(`{"queries":[%s]}`, strings.Join(queries, ","))

	var got batchResp
	if rec := do(t, s, http.MethodPost, "/v1/batch", body, &got); rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %q", rec.Code, rec.Body.String())
	}
	if got.Succeeded != 10 || got.Failed != 0 {
		t.Fatalf("batch outcome = %d ok / %d failed", got.Succeeded, got.Failed)
	}
	st := s.Index().Stats()
	if st.Misses != 1 || st.Hits != 9 {
		t.Fatalf("k-sweep of 10 = %d builds / %d hits, want exactly 1 / 9 (%+v)", st.Misses, st.Hits, st)
	}

	// Each k's seeds must be the same prefix-free greedy result the
	// dedicated endpoint computes; spot-check k=10 against /v1/selfinfmax.
	var single solveResp
	singleBody := "{" + strings.TrimPrefix(queries[9], `{"op":"selfinfmax",`)
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", singleBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("single solve = %d %q", rec.Code, rec.Body.String())
	} else if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	var fromBatch solveResp
	if err := json.Unmarshal(got.Results[9].Result, &fromBatch); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.Seeds, fromBatch.Seeds) || single.Objective != fromBatch.Objective {
		t.Fatalf("batch k=10 (%v, %v) != single request (%v, %v)",
			fromBatch.Seeds, fromBatch.Objective, single.Seeds, single.Objective)
	}
}

// TestBatchMixedOpsAndErrors pins per-query error isolation: one bad query
// reports its own error and status without failing the batch.
func TestBatchMixedOpsAndErrors(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	t.Cleanup(s.Close)
	body := `{"queries":[
		{"op":"spread","dataset":"Flixster","seedsA":[0,1],"runs":300,"seed":7},
		{"op":"spread","dataset":"nope"},
		{"op":"boost","dataset":"Flixster","seedsA":[0],"seedsB":[1],"runs":300},
		{"op":"boost","dataset":"Flixster","seedsA":[0]},
		{"op":"selfinfmax","dataset":"Flixster","k":0},
		{"op":"selfinfmax","dataset":"Flixster","k":2,"runs":5},
		{"op":"spread","dataset":"Flixster","k":3},
		{"op":"frobnicate","dataset":"Flixster"},
		{"dataset":"Flixster"},
		{"op":"compinfmax","dataset":"Flixster","k":2,"seedsA":[0],"fixedTheta":500,"evalRuns":100}
	]}`
	var got batchResp
	if rec := do(t, s, http.MethodPost, "/v1/batch", body, &got); rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %q", rec.Code, rec.Body.String())
	}
	if got.Succeeded != 3 || got.Failed != 7 {
		t.Fatalf("batch outcome = %d ok / %d failed, want 3/7: %s", got.Succeeded, got.Failed, mustJSON(got))
	}
	wantStatus := []int{200, 404, 200, 400, 400, 400, 400, 400, 400, 200}
	for i, r := range got.Results {
		if r.Status != wantStatus[i] {
			t.Fatalf("result %d status = %d (%v), want %d", i, r.Status, r.Error, wantStatus[i])
		}
		if r.Status != http.StatusOK && (r.Error == nil || r.Error.Code == "" || r.Error.Message == "") {
			t.Fatalf("failed result %d carries no structured error (%v)", i, r.Error)
		}
	}
	// The 404 carries its catalog code, same as the dedicated endpoint.
	if got.Results[1].Error.Code != "graph_not_found" {
		t.Fatalf("unknown-dataset code = %q, want graph_not_found", got.Results[1].Error.Code)
	}
	// The cross-op field checks must name the offending field family.
	if !strings.Contains(got.Results[5].Error.Message, "evalRuns, not runs") {
		t.Fatalf("solve-with-runs error = %q", got.Results[5].Error.Message)
	}
	if !strings.Contains(got.Results[6].Error.Message, "no solver fields") {
		t.Fatalf("spread-with-k error = %q", got.Results[6].Error.Message)
	}
}

func TestBatchEnvelopeValidation(t *testing.T) {
	d := testDataset(t)
	s, err := server.New(server.Config{
		Datasets: map[string]*comic.Dataset{"Flixster": d},
		MaxBatch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if rec := do(t, s, http.MethodPost, "/v1/batch", `{"queries":[]}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", rec.Code)
	}
	q := `{"op":"spread","dataset":"Flixster","runs":10}`
	body := fmt.Sprintf(`{"queries":[%s,%s,%s,%s]}`, q, q, q, q)
	rec := do(t, s, http.MethodPost, "/v1/batch", body, nil)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceeds limit 3") {
		t.Fatalf("oversized batch = %d %q, want 400 with limit message", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodGet, "/v1/batch", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/batch = %d, want 405", rec.Code)
	}
}

// TestWarmPathBatchJobSingleParity pins the warm path end to end over HTTP:
// a k-sweep under a fixed θ shares one collection across /v1/selfinfmax,
// /v1/batch and /v1/jobs, and every route returns byte-identical results
// for the same query. With the strict-Q+ Flixster GAPs each solve needs the
// lower and upper bound collections, so the whole sweep costs exactly 2
// collection builds no matter how many k values or routes it spans.
func TestWarmPathBatchJobSingleParity(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	t.Cleanup(s.Close)

	query := func(k int) string {
		return fmt.Sprintf(`{"dataset":"Flixster","k":%d,"seedsB":[1,2],"fixedTheta":2000,"evalRuns":300,"seed":5}`, k)
	}
	const kmax = 6

	// Singles, k ascending: the first solve builds, the rest hit.
	singles := make([]solveResp, kmax+1)
	for k := 1; k <= kmax; k++ {
		if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", query(k), &singles[k]); rec.Code != http.StatusOK {
			t.Fatalf("k=%d solve = %d %q", k, rec.Code, rec.Body.String())
		}
	}

	st := s.Index().Stats()
	if st.Misses != 2 || st.Hits != 2*(kmax-1) {
		t.Fatalf("k-sweep stats = %d misses / %d hits, want 2/%d (one collection pair, two bounds × %d warm solves)",
			st.Misses, st.Hits, 2*(kmax-1), kmax-1)
	}

	// The same sweep through /v1/batch must be answered fully warm and
	// byte-identical per k.
	var ops []string
	for k := 1; k <= kmax; k++ {
		ops = append(ops, fmt.Sprintf(`{"op":"selfinfmax",%s`, query(k)[1:]))
	}
	wrapped := fmt.Sprintf(`{"queries":[%s]}`, strings.Join(ops, ","))
	var batch batchResp
	if rec := do(t, s, http.MethodPost, "/v1/batch", wrapped, &batch); rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %q", rec.Code, rec.Body.String())
	}
	if batch.Succeeded != kmax {
		t.Fatalf("batch succeeded = %d, want %d", batch.Succeeded, kmax)
	}
	for i := 0; i < kmax; i++ {
		var got solveResp
		if err := json.Unmarshal(batch.Results[i].Result, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, singles[i+1]) {
			t.Fatalf("batch k=%d %+v != single %+v", i+1, got, singles[i+1])
		}
	}

	// And through /v1/jobs.
	var submitted jobStatusResp
	if rec := do(t, s, http.MethodPost, "/v1/jobs", wrapped, &submitted); rec.Code != http.StatusAccepted {
		t.Fatalf("job submit = %d %q", rec.Code, rec.Body.String())
	}
	finished := pollJob(t, s, submitted.ID)
	if finished.State != "done" || finished.Result == nil || finished.Result.Succeeded != kmax {
		t.Fatalf("job outcome = %+v", finished)
	}
	for i := 0; i < kmax; i++ {
		var got solveResp
		if err := json.Unmarshal(finished.Result.Results[i].Result, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, singles[i+1]) {
			t.Fatalf("job k=%d %+v != single %+v", i+1, got, singles[i+1])
		}
	}

	// Batch and job added zero builds.
	if end := s.Index().Stats(); end.Misses != 2 {
		t.Fatalf("after batch+job: %d misses, want still 2", end.Misses)
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// BenchmarkServeBatchKSweep quantifies the amortization of a k=1..10 sweep
// submitted as one /v1/batch request versus ten sequential requests. Both
// share the RR-set build through the index (PR 1's cache keys already drop
// k under fixed θ); the batch additionally pays request decode/encode and
// handler overhead once instead of ten times. Each iteration uses a fresh
// master seed so every sweep starts cold (one real build per iteration).
func BenchmarkServeBatchKSweep(b *testing.B) {
	d := testDataset(b)
	sweep := func(seed uint64) []string {
		var queries []string
		for k := 1; k <= 10; k++ {
			queries = append(queries, fmt.Sprintf(
				`{"op":"selfinfmax","dataset":"Flixster","gap":%s,"k":%d,"seedsB":[1,2],"fixedTheta":20000,"evalRuns":200,"seed":%d}`,
				bIndifferentGAP, k, seed))
		}
		return queries
	}

	b.Run("batch", func(b *testing.B) {
		s := newTestServer(b, d)
		defer s.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body := fmt.Sprintf(`{"queries":[%s]}`, strings.Join(sweep(uint64(i)+1), ","))
			var got batchResp
			if rec := do(b, s, http.MethodPost, "/v1/batch", body, &got); rec.Code != http.StatusOK || got.Failed != 0 {
				b.Fatalf("batch = %d, %d failed", rec.Code, got.Failed)
			}
		}
	})
	b.Run("sequential10", func(b *testing.B) {
		s := newTestServer(b, d)
		defer s.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range sweep(uint64(i) + 1) {
				body := strings.TrimPrefix(q, `{"op":"selfinfmax",`)
				if rec := do(b, s, http.MethodPost, "/v1/selfinfmax", "{"+body, nil); rec.Code != http.StatusOK {
					b.Fatalf("solve = %d %q", rec.Code, rec.Body.String())
				}
			}
		}
	})
}
