package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"comic"
	"comic/internal/server"
)

// jobStatusResp mirrors the /v1/jobs wire form in tests.
type jobStatusResp struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Queries int    `json:"queries"`
	Result  *struct {
		Results []struct {
			Op     string          `json:"op"`
			Status int             `json:"status"`
			Error  *errBody        `json:"error"`
			Result json.RawMessage `json:"result"`
		} `json:"results"`
		Succeeded int `json:"succeeded"`
		Failed    int `json:"failed"`
	} `json:"result"`
}

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal state.
func pollJob(tb testing.TB, s *server.Server, id string) jobStatusResp {
	tb.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st jobStatusResp
		rec := do(tb, s, http.MethodGet, "/v1/jobs/"+id, "", &st)
		if rec.Code != http.StatusOK {
			tb.Fatalf("poll %s = %d %q", id, rec.Code, rec.Body.String())
		}
		if st.State == "done" || st.State == "canceled" {
			return st
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobSolveParity is the acceptance determinism contract: one solve
// submitted synchronously, inside a /v1/batch, and through /v1/jobs must
// return byte-identical seeds and objectives.
func TestJobSolveParity(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	t.Cleanup(s.Close)
	query := `{"dataset":"Flixster","k":5,"seedsB":[1,2,3],"fixedTheta":2000,"evalRuns":300,"seed":7}`

	var direct solveResp
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", query, &direct); rec.Code != http.StatusOK {
		t.Fatalf("direct solve = %d %q", rec.Code, rec.Body.String())
	}

	wrapped := fmt.Sprintf(`{"queries":[{"op":"selfinfmax",%s]}`, query[1:])
	var batch batchResp
	if rec := do(t, s, http.MethodPost, "/v1/batch", wrapped, &batch); rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %q", rec.Code, rec.Body.String())
	}
	var fromBatch solveResp
	if err := json.Unmarshal(batch.Results[0].Result, &fromBatch); err != nil {
		t.Fatal(err)
	}

	var submitted jobStatusResp
	if rec := do(t, s, http.MethodPost, "/v1/jobs", wrapped, &submitted); rec.Code != http.StatusAccepted {
		t.Fatalf("job submit = %d %q", rec.Code, rec.Body.String())
	}
	if submitted.ID == "" || (submitted.State != "queued" && submitted.State != "running") {
		t.Fatalf("job submit response = %+v", submitted)
	}
	finished := pollJob(t, s, submitted.ID)
	if finished.State != "done" || finished.Result == nil || finished.Result.Succeeded != 1 {
		t.Fatalf("job outcome = %+v", finished)
	}
	var fromJob solveResp
	if err := json.Unmarshal(finished.Result.Results[0].Result, &fromJob); err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string]solveResp{"batch": fromBatch, "job": fromJob} {
		if !reflect.DeepEqual(got.Seeds, direct.Seeds) || got.Objective != direct.Objective || got.Chosen != direct.Chosen {
			t.Fatalf("%s solve (%v, %v, %s) != direct (%v, %v, %s)",
				name, got.Seeds, got.Objective, got.Chosen, direct.Seeds, direct.Objective, direct.Chosen)
		}
	}
}

// TestJobLifecycle covers submit → list → poll → discard, and 404s for
// unknown ids.
func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	t.Cleanup(s.Close)
	var submitted jobStatusResp
	body := `{"queries":[{"op":"spread","dataset":"Flixster","seedsA":[0],"runs":200,"seed":1}]}`
	if rec := do(t, s, http.MethodPost, "/v1/jobs", body, &submitted); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d %q", rec.Code, rec.Body.String())
	}
	finished := pollJob(t, s, submitted.ID)
	if finished.State != "done" || finished.Result == nil || finished.Result.Succeeded != 1 {
		t.Fatalf("job = %+v", finished)
	}

	var list struct {
		Jobs []jobStatusResp `json:"jobs"`
	}
	do(t, s, http.MethodGet, "/v1/jobs", "", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != submitted.ID || list.Jobs[0].State != "done" {
		t.Fatalf("job list = %+v", list.Jobs)
	}
	if list.Jobs[0].Result != nil {
		t.Fatal("list responses must omit results")
	}

	// DELETE on a finished job discards the record.
	if rec := do(t, s, http.MethodDelete, "/v1/jobs/"+submitted.ID, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/jobs/"+submitted.ID, "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("poll after delete = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/jobs/nope", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", rec.Code)
	}
	// The submit counted once; the rejected empty submission below counts
	// as an error, not a job.
	if rec := do(t, s, http.MethodPost, "/v1/jobs", `{"queries":[]}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty job = %d, want 400", rec.Code)
	}
	var st struct {
		Requests map[string]int64 `json:"requests"`
	}
	do(t, s, http.MethodGet, "/v1/stats", "", &st)
	if st.Requests["jobs"] != 1 {
		t.Fatalf("jobs counter = %d, want 1 (%v)", st.Requests["jobs"], st.Requests)
	}
}

// TestJobPoolSaturation pins the bounded-queue contract (run under -race
// in CI): with one worker and one queue slot, a burst of submissions gets
// some accepted and the overflow rejected with 429 — and every accepted
// job still runs to completion.
func TestJobPoolSaturation(t *testing.T) {
	d := testDataset(t)
	s, err := server.New(server.Config{
		Datasets:      map[string]*comic.Dataset{"Flixster": d},
		MaxJobs:       1,
		MaxQueuedJobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Each job is a batch of moderately expensive spreads, so the single
	// worker cannot drain a tight submission burst.
	body := `{"queries":[
		{"op":"spread","dataset":"Flixster","seedsA":[0],"runs":20000,"seed":1},
		{"op":"spread","dataset":"Flixster","seedsA":[1],"runs":20000,"seed":2},
		{"op":"spread","dataset":"Flixster","seedsA":[2],"runs":20000,"seed":3}
	]}`
	var accepted []string
	rejected := 0
	for i := 0; i < 10; i++ {
		var st jobStatusResp
		rec := do(t, s, http.MethodPost, "/v1/jobs", body, &st)
		switch rec.Code {
		case http.StatusAccepted:
			accepted = append(accepted, st.ID)
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("submit %d = %d %q", i, rec.Code, rec.Body.String())
		}
	}
	if len(accepted) == 0 {
		t.Fatal("no job was accepted")
	}
	if rejected == 0 {
		t.Fatalf("10 bursts onto a 1-worker/1-slot pool all accepted (%d)", len(accepted))
	}
	for _, id := range accepted {
		if st := pollJob(t, s, id); st.State != "done" || st.Result.Failed != 0 {
			t.Fatalf("job %s = %+v", id, st)
		}
	}
}

// TestJobCancellation covers DELETE on a live job: the batch stops at a
// query boundary, the job reports "canceled", and the queries that never
// ran are marked as such in the partial result.
func TestJobCancellation(t *testing.T) {
	d := testDataset(t)
	s, err := server.New(server.Config{
		Datasets: map[string]*comic.Dataset{"Flixster": d},
		MaxJobs:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var queries string
	for i := 0; i < 40; i++ {
		if i > 0 {
			queries += ","
		}
		queries += fmt.Sprintf(`{"op":"spread","dataset":"Flixster","seedsA":[0],"runs":20000,"seed":%d}`, i)
	}
	var submitted jobStatusResp
	if rec := do(t, s, http.MethodPost, "/v1/jobs", `{"queries":[`+queries+`]}`, &submitted); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/jobs/"+submitted.ID, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel = %d %q", rec.Code, rec.Body.String())
	}
	st := pollJob(t, s, submitted.ID)
	switch {
	case st.State == "canceled" && st.Result != nil:
		// The worker observed the cancellation mid-run: skipped queries
		// are reported explicitly, not silently dropped.
		if len(st.Result.Results) != 40 {
			t.Fatalf("canceled job result has %d entries, want 40", len(st.Result.Results))
		}
		if st.Result.Failed == 0 {
			t.Fatal("canceled job reports no skipped queries")
		}
	case st.State == "canceled":
		// Canceled while still queued: it never ran, so no result exists.
	case st.State == "done":
		// Legal if the whole batch outran the DELETE.
	default:
		t.Fatalf("job state after cancel = %q", st.State)
	}
}

// newRetainTwoServer serves the test dataset with one job worker and room
// for two finished jobs.
func newRetainTwoServer(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Datasets:     map[string]*comic.Dataset{"Flixster": testDataset(t)},
		MaxJobs:      1,
		RetainedJobs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// submitJob submits a job and returns its id.
func submitJob(t *testing.T, s *server.Server, body string) string {
	t.Helper()
	var st jobStatusResp
	if rec := do(t, s, http.MethodPost, "/v1/jobs", body, &st); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d %q", rec.Code, rec.Body.String())
	}
	return st.ID
}

const quickJob = `{"queries":[{"op":"spread","dataset":"Flixster","seedsA":[0],"runs":200,"seed":1}]}`

// TestJobRetentionSkipsDeleted: a finished job discarded by DELETE frees
// its retention slot, so it no longer pushes live finished jobs out.
func TestJobRetentionSkipsDeleted(t *testing.T) {
	s := newRetainTwoServer(t)
	first := submitJob(t, s, quickJob)
	pollJob(t, s, first)
	second := submitJob(t, s, quickJob)
	pollJob(t, s, second)
	if rec := do(t, s, http.MethodDelete, "/v1/jobs/"+second, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d", rec.Code)
	}
	pollJob(t, s, submitJob(t, s, quickJob))
	if rec := do(t, s, http.MethodGet, "/v1/jobs/"+first, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("poll %s = %d, want 200: a deleted job still held a retention slot", first, rec.Code)
	}
}

// TestJobDeletedWhileQueuedTakesNoSlot: a job DELETEd twice while queued —
// canceled, then discarded — takes no retention slot when its worker pops
// it.
func TestJobDeletedWhileQueuedTakesNoSlot(t *testing.T) {
	s := newRetainTwoServer(t)
	// A long batch holds the only worker while the second job waits.
	var queries []string
	for i := 0; i < 40; i++ {
		queries = append(queries, fmt.Sprintf(`{"op":"spread","dataset":"Flixster","seedsA":[0],"runs":20000,"seed":%d}`, i))
	}
	long := submitJob(t, s, `{"queries":[`+strings.Join(queries, ",")+`]}`)
	queued := submitJob(t, s, quickJob)
	for i := 0; i < 2; i++ {
		if rec := do(t, s, http.MethodDelete, "/v1/jobs/"+queued, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("delete %d = %d", i+1, rec.Code)
		}
	}
	if rec := do(t, s, http.MethodGet, "/v1/jobs/"+queued, "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("poll after discard = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/jobs/"+long, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel = %d", rec.Code)
	}
	pollJob(t, s, long)
	// The single worker pops the discarded job before this one, so two
	// finished jobs are retained: the long one and this one.
	pollJob(t, s, submitJob(t, s, quickJob))
	if rec := do(t, s, http.MethodGet, "/v1/jobs/"+long, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("poll %s = %d, want 200: a discarded job took a retention slot", long, rec.Code)
	}
}
