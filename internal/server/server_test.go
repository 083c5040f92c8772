package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"comic"
	"comic/internal/server"
	"comic/internal/solver"
)

// testDataset is the Flixster stand-in at a laptop-friendly scale; its
// learned GAPs are mutually complementary, the solvers' input domain.
func testDataset(tb testing.TB) *comic.Dataset {
	tb.Helper()
	return comic.FlixsterDataset(0.02, 1)
}

func newTestServer(tb testing.TB, d *comic.Dataset) *server.Server {
	tb.Helper()
	s, err := server.New(server.Config{
		Datasets: map[string]*comic.Dataset{"Flixster": d},
		MaxK:     50,
		MaxRuns:  20000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// do performs one request and decodes the JSON response into out.
func do(tb testing.TB, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	tb.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code >= 200 && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Fatalf("bad JSON response %q: %v", rec.Body.String(), err)
		}
	}
	return rec
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	var got struct {
		Status   string   `json:"status"`
		Datasets []string `json:"datasets"`
	}
	rec := do(t, s, http.MethodGet, "/healthz", "", &got)
	if rec.Code != http.StatusOK || got.Status != "ok" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	if len(got.Datasets) != 1 || got.Datasets[0] != "Flixster" {
		t.Fatalf("datasets = %v", got.Datasets)
	}
	if rec := do(t, s, http.MethodPost, "/healthz", "{}", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", rec.Code)
	}
}

func TestSpreadHandler(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	body := `{"dataset":"Flixster","seedsA":[0,1],"seedsB":[2],"runs":500,"seed":7}`
	var r1, r2 struct {
		MeanA float64 `json:"meanA"`
		MeanB float64 `json:"meanB"`
		Runs  int     `json:"runs"`
		Seed  uint64  `json:"seed"`
	}
	if rec := do(t, s, http.MethodPost, "/v1/spread", body, &r1); rec.Code != http.StatusOK {
		t.Fatalf("spread = %d %q", rec.Code, rec.Body.String())
	}
	if r1.Runs != 500 || r1.Seed != 7 || r1.MeanA <= 0 {
		t.Fatalf("spread response = %+v", r1)
	}
	do(t, s, http.MethodPost, "/v1/spread", body, &r2)
	if r1 != r2 {
		t.Fatalf("repeated spread queries differ: %+v vs %+v", r1, r2)
	}
}

func TestBoostHandler(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	var got struct {
		Boost float64 `json:"boost"`
		Runs  int     `json:"runs"`
	}
	body := `{"dataset":"Flixster","seedsA":[0,1],"seedsB":[2,3],"runs":500,"seed":7}`
	if rec := do(t, s, http.MethodPost, "/v1/boost", body, &got); rec.Code != http.StatusOK {
		t.Fatalf("boost = %d %q", rec.Code, rec.Body.String())
	}
	if got.Runs != 500 {
		t.Fatalf("boost response = %+v", got)
	}
	rec := do(t, s, http.MethodPost, "/v1/boost", `{"dataset":"Flixster","seedsA":[0]}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("boost without seedsB = %d, want 400", rec.Code)
	}
}

func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad json", "/v1/spread", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/spread", `{"dataset":"Flixster","bogus":1}`, http.StatusBadRequest},
		{"unknown dataset", "/v1/spread", `{"dataset":"nope"}`, http.StatusNotFound},
		{"seed out of range", "/v1/spread", `{"dataset":"Flixster","seedsA":[999999]}`, http.StatusBadRequest},
		{"negative seed id", "/v1/spread", `{"dataset":"Flixster","seedsA":[-1]}`, http.StatusBadRequest},
		{"runs over limit", "/v1/spread", `{"dataset":"Flixster","runs":999999}`, http.StatusBadRequest},
		{"bad gap", "/v1/spread", `{"dataset":"Flixster","gap":{"qa0":2,"qab":1,"qb0":0,"qba":0}}`, http.StatusBadRequest},
		{"missing k", "/v1/selfinfmax", `{"dataset":"Flixster"}`, http.StatusBadRequest},
		{"k over limit", "/v1/selfinfmax", `{"dataset":"Flixster","k":5000}`, http.StatusBadRequest},
		{"self with seedsA", "/v1/selfinfmax", `{"dataset":"Flixster","k":2,"seedsA":[1]}`, http.StatusBadRequest},
		{"comp with seedsB", "/v1/compinfmax", `{"dataset":"Flixster","k":2,"seedsB":[1]}`, http.StatusBadRequest},
		{"theta over limit", "/v1/selfinfmax", `{"dataset":"Flixster","k":2,"fixedTheta":99999999}`, http.StatusBadRequest},
		{"evalRuns over limit", "/v1/selfinfmax", `{"dataset":"Flixster","k":2,"evalRuns":999999}`, http.StatusBadRequest},
		{"greedyRuns over limit", "/v1/selfinfmax", `{"dataset":"Flixster","k":2,"greedyRuns":999999}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, tc.path, tc.body, nil)
			if rec.Code != tc.want {
				t.Fatalf("%s %s = %d, want %d (%s)", tc.path, tc.body, rec.Code, tc.want, rec.Body.String())
			}
			decodeEnvelope(t, rec)
		})
	}
}

// TestSolveRejectsKAboveN pins the k ≤ n half of the k validation: MaxK
// alone used to gate k, so a small graph with k > N() slipped through to
// the θ machinery (where ln C(n,k) degenerates to 0) and seed selection
// was asked for more distinct seeds than nodes exist.
func TestSolveRejectsKAboveN(t *testing.T) {
	d := testDataset(t)
	n := d.Graph.N()
	s, err := server.New(server.Config{
		Datasets: map[string]*comic.Dataset{"Flixster": d},
		MaxK:     10 * n, // operator cap far above the graph size
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, path := range []string{"/v1/selfinfmax", "/v1/compinfmax"} {
		body := fmt.Sprintf(`{"dataset":"Flixster","k":%d,"fixedTheta":200,"evalRuns":50}`, n+1)
		rec := do(t, s, http.MethodPost, path, body, nil)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s with k=n+1 = %d, want 400 (%s)", path, rec.Code, rec.Body.String())
		}
		if e := decodeEnvelope(t, rec); !strings.Contains(e.Message, "k must be in [1, min(") {
			t.Fatalf("%s error = %q, want a min(maxK, n) bound message", path, rec.Body.String())
		}
	}
	// k = n stays accepted: the bound is inclusive.
	body := fmt.Sprintf(`{"dataset":"Flixster","k":%d,"fixedTheta":200,"evalRuns":50}`, n)
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", body, nil); rec.Code != http.StatusOK {
		t.Fatalf("k=n solve = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
}

type solveResp struct {
	Seeds      []int32 `json:"seeds"`
	Objective  float64 `json:"objective"`
	Chosen     string  `json:"chosen"`
	Candidates []struct {
		Name  string `json:"name"`
		Theta int    `json:"theta"`
	} `json:"candidates"`
}

// TestSelfInfMaxParityAndWarmHits is the serving layer's core contract: a
// query answered from the warm RR-set index returns exactly the seed set
// the offline solver (what cmd/comic-seeds runs) computes for the same
// master seed, and the repeat query is answered entirely from cache.
func TestSelfInfMaxParityAndWarmHits(t *testing.T) {
	d := testDataset(t)
	s := newTestServer(t, d)
	seedsB := []int32{1, 2, 3}
	body := `{"dataset":"Flixster","k":5,"seedsB":[1,2,3],"fixedTheta":2000,"evalRuns":500,"seed":7}`

	var cold, warm solveResp
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", body, &cold); rec.Code != http.StatusOK {
		t.Fatalf("cold solve = %d %q", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", body, &warm); rec.Code != http.StatusOK {
		t.Fatalf("warm solve = %d %q", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(cold.Seeds, warm.Seeds) || cold.Objective != warm.Objective {
		t.Fatalf("warm response differs from cold: %+v vs %+v", warm, cold)
	}

	// Offline path, as cmd/comic-seeds invokes it.
	offline, err := comic.SelfInfMax(d.Graph, d.GAP, seedsB, 5, comic.Options{
		FixedTheta: 2000, EvalRuns: 500, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(offline.Seeds, warm.Seeds) {
		t.Fatalf("warm server seeds %v != offline solver seeds %v", warm.Seeds, offline.Seeds)
	}
	if offline.Objective != warm.Objective || offline.Chosen != warm.Chosen {
		t.Fatalf("server (%v, %s) != offline (%v, %s)",
			warm.Objective, warm.Chosen, offline.Objective, offline.Chosen)
	}

	// The Flixster GAPs are not B-indifferent, so one solve needs the
	// lower and upper bound collections: 2 misses cold, 2 hits warm.
	st := s.Index().Stats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("index stats = %+v, want 2 misses / 2 hits", st)
	}
}

func TestCompInfMaxDeterminism(t *testing.T) {
	d := testDataset(t)
	s := newTestServer(t, d)
	body := `{"dataset":"Flixster","k":3,"seedsA":[0,1],"fixedTheta":1500,"evalRuns":400,"seed":11}`
	var r1, r2 solveResp
	if rec := do(t, s, http.MethodPost, "/v1/compinfmax", body, &r1); rec.Code != http.StatusOK {
		t.Fatalf("compinfmax = %d %q", rec.Code, rec.Body.String())
	}
	do(t, s, http.MethodPost, "/v1/compinfmax", body, &r2)
	if !reflect.DeepEqual(r1.Seeds, r2.Seeds) {
		t.Fatalf("repeated compinfmax differs: %v vs %v", r1.Seeds, r2.Seeds)
	}
	offline, err := comic.CompInfMax(d.Graph, d.GAP, []int32{0, 1}, 3, comic.Options{
		FixedTheta: 1500, EvalRuns: 400, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(offline.Seeds, r2.Seeds) {
		t.Fatalf("warm server seeds %v != offline solver seeds %v", r2.Seeds, offline.Seeds)
	}
	if st := s.Index().Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("index stats = %+v, want 1 miss / 1 hit", st)
	}
}

func TestSolveHonorsExplicitSeedZero(t *testing.T) {
	// An explicit "seed": 0 is a legitimate master seed: it must round-trip
	// in the response and drive the solve, exactly as /v1/spread treats it —
	// not be silently rewritten to the default 1.
	d := testDataset(t)
	s := newTestServer(t, d)
	type seeded struct {
		solveResp
		Seed uint64 `json:"seed"`
	}
	post := func(body string) seeded {
		var got seeded
		if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", body, &got); rec.Code != http.StatusOK {
			t.Fatalf("solve = %d %q", rec.Code, rec.Body.String())
		}
		return got
	}
	zero := post(`{"dataset":"Flixster","k":3,"seedsB":[1],"fixedTheta":1500,"evalRuns":300,"seed":0}`)
	if zero.Seed != 0 {
		t.Fatalf("explicit seed 0 came back as %d", zero.Seed)
	}
	// Seed 0 must actually drive the solve: the response must match the
	// solver invoked directly with master seed 0. (The comic.Options facade
	// treats 0 as "unset", so go through solver.Config, which doesn't.)
	cfg := solver.NewConfig(3)
	cfg.TIM.FixedTheta = 1500
	cfg.TIM.MaxTheta = 2_000_000
	cfg.EvalRuns = 300
	cfg.Seed = 0
	offline, err := solver.SolveSelfInfMax(d.Graph, d.GAP, []int32{1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(offline.Seeds, zero.Seeds) || offline.Objective != zero.Objective {
		t.Fatalf("seed-0 server solve %+v != seed-0 direct solve (%v, %v)",
			zero.solveResp, offline.Seeds, offline.Objective)
	}

	one := post(`{"dataset":"Flixster","k":3,"seedsB":[1],"fixedTheta":1500,"evalRuns":300,"seed":1}`)
	if one.Seed != 1 {
		t.Fatalf("seed 1 came back as %d", one.Seed)
	}
	absent := post(`{"dataset":"Flixster","k":3,"seedsB":[1],"fixedTheta":1500,"evalRuns":300}`)
	if absent.Seed != 1 {
		t.Fatalf("absent seed defaulted to %d, want 1", absent.Seed)
	}
	if !reflect.DeepEqual(absent.Seeds, one.Seeds) || absent.Objective != one.Objective {
		t.Fatalf("absent-seed solve %+v != explicit seed-1 solve %+v", absent.solveResp, one.solveResp)
	}
	// Different master seeds draw different RR-set collections; the index
	// must key them apart (4 distinct misses: 0 and 1, lower+upper each).
	if st := s.Index().Stats(); st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (seed 0 and seed 1 keyed separately)", st.Misses)
	}
}

func TestServerMaxThetaCapsDerivedTheta(t *testing.T) {
	// The operator's MaxTheta and a request's maxTheta must bound the
	// KPT-derived theta path too, not only requests that name a budget
	// explicitly. A tiny epsilon pushes λ/KPT past the int range, and the
	// budget must still come out at the cap, not at 1.
	d := testDataset(t)
	for _, tc := range []struct {
		serverCap, want int
		body            string
	}{
		{150, 150, `{"dataset":"Flixster","k":3,"seedsB":[1],"evalRuns":100,"seed":4}`},
		{0, 500, `{"dataset":"Flixster","k":3,"seedsB":[1],"evalRuns":100,"seed":4,"epsilon":1e-10,"maxTheta":500}`},
	} {
		s, err := server.New(server.Config{
			Datasets: map[string]*comic.Dataset{"Flixster": d},
			MaxTheta: tc.serverCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Candidates []struct {
				Theta int `json:"theta"`
			} `json:"candidates"`
		}
		rec := do(t, s, http.MethodPost, "/v1/selfinfmax", tc.body, &got)
		if rec.Code != http.StatusOK {
			t.Fatalf("solve = %d %s", rec.Code, rec.Body.String())
		}
		if len(got.Candidates) == 0 {
			t.Fatal("no candidates in response")
		}
		for _, c := range got.Candidates {
			if c.Theta != tc.want {
				t.Errorf("%s: candidate theta = %d, want the cap %d", tc.body, c.Theta, tc.want)
			}
		}
	}
}

// TestStatsEndpoint pins the accepted-vs-errors counter contract: a
// request is counted under its endpoint only once it passes validation;
// rejected requests count once, under "errors" — never both, and never as
// served traffic. (They used to increment before validation, so every
// rejection inflated its endpoint's counter and "errors" simultaneously.)
func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	do(t, s, http.MethodPost, "/v1/spread", `{"dataset":"Flixster","seedsA":[0],"runs":100}`, nil)
	do(t, s, http.MethodPost, "/v1/selfinfmax", `{"dataset":"Flixster","k":2,"fixedTheta":500,"evalRuns":100}`, nil)
	// Three rejections at different validation stages: unknown dataset,
	// bad k, out-of-range seed id.
	do(t, s, http.MethodPost, "/v1/spread", `{"dataset":"nope"}`, nil)
	do(t, s, http.MethodPost, "/v1/selfinfmax", `{"dataset":"Flixster","k":0}`, nil)
	do(t, s, http.MethodPost, "/v1/boost", `{"dataset":"Flixster","seedsA":[999999],"seedsB":[1]}`, nil)

	var st struct {
		Index    server.IndexStats `json:"index"`
		Requests map[string]int64  `json:"requests"`
		Datasets []struct {
			Name  string `json:"name"`
			Nodes int    `json:"nodes"`
		} `json:"datasets"`
	}
	if rec := do(t, s, http.MethodGet, "/v1/stats", "", &st); rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	want := map[string]int64{"spread": 1, "selfinfmax": 1, "boost": 0, "errors": 3}
	for k, v := range want {
		if st.Requests[k] != v {
			t.Fatalf("requests[%q] = %d, want %d (all: %v)", k, st.Requests[k], v, st.Requests)
		}
	}
	if st.Index.Misses == 0 {
		t.Fatalf("index stats empty after a solve: %+v", st.Index)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Name != "Flixster" || st.Datasets[0].Nodes == 0 {
		t.Fatalf("datasets = %+v", st.Datasets)
	}
}

func TestNewRejectsEmptyConfig(t *testing.T) {
	if _, err := server.New(server.Config{}); err == nil {
		t.Fatal("New accepted a config with no datasets")
	}
	if _, err := server.New(server.Config{Datasets: map[string]*comic.Dataset{"x": nil}}); err == nil {
		t.Fatal("New accepted a nil dataset")
	}
}

// TestServeGracefulShutdown exercises the Serve lifecycle end to end on a
// real listener.
func TestServeGracefulShutdown(t *testing.T) {
	d := testDataset(t)
	cfg := server.Config{Datasets: map[string]*comic.Dataset{"Flixster": d}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go func() { errc <- server.ServeListener(ctx, l, cfg) }()

	// Wait for the listener, then probe /healthz.
	var ok bool
	for i := 0; i < 100 && !ok; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
		if !ok {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatal("server never became healthy")
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
}
