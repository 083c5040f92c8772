package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"comic"
	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/exact"
	"comic/internal/graph"
	"comic/internal/server"
)

// graphInfoResp mirrors the unified graph resource representation in
// tests; every surface that describes a graph must produce exactly this
// shape.
type graphInfoResp struct {
	Name        string          `json:"name"`
	Nodes       int             `json:"nodes"`
	Edges       int             `json:"edges"`
	GAP         json.RawMessage `json:"gap"`
	Regime      string          `json:"regime"`
	Generation  int64           `json:"generation"`
	Fingerprint string          `json:"fingerprint"`
	Source      string          `json:"source"`
	Created     string          `json:"created"`
}

// patchResp mirrors the PATCH /v1/graphs/{name}/edges response.
type patchResp struct {
	graphInfoResp
	Repair struct {
		Collections  int `json:"collections"`
		Repaired     int `json:"repaired"`
		Fallbacks    int `json:"fallbacks"`
		ReusedSets   int `json:"reusedSets"`
		RepairedSets int `json:"repairedSets"`
	} `json:"repair"`
}

// reweightBatch builds a PATCH body reweighting the first count distinct
// (u,v) edges of g by factor, and returns the same updates as
// graph.EdgeUpdate values for replaying offline.
func reweightBatch(tb testing.TB, g *graph.Graph, count int, factor float64) (string, []graph.EdgeUpdate) {
	tb.Helper()
	seen := map[[2]int32]bool{}
	var parts []string
	var ups []graph.EdgeUpdate
	for eid := int32(0); eid < int32(g.M()) && len(ups) < count; eid++ {
		u, v := g.EdgeEndpoints(eid)
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		p := g.Prob(eid) * factor
		parts = append(parts, fmt.Sprintf(`{"op":"reweight","u":%d,"v":%d,"p":%g}`, u, v, p))
		ups = append(ups, graph.EdgeUpdate{Op: graph.OpReweight, U: u, V: v, P: p})
	}
	if len(ups) < count {
		tb.Fatalf("graph has only %d distinct edges, want %d", len(ups), count)
	}
	return fmt.Sprintf(`{"updates":[%s]}`, strings.Join(parts, ",")), ups
}

// TestPatchAdvancesGenerationAndRepairs is the tentpole happy path: a
// PATCH advances the generation, changes the fingerprint, repairs the
// warm collections in place, and the next identical solve is (a) still
// warm and (b) byte-identical to a cold solve on the patched topology.
func TestPatchAdvancesGenerationAndRepairs(t *testing.T) {
	d := testDataset(t)
	s := newTestServer(t, d)
	t.Cleanup(s.Close)

	var before graphInfoResp
	if rec := do(t, s, http.MethodGet, "/v1/graphs/Flixster", "", &before); rec.Code != http.StatusOK {
		t.Fatalf("describe = %d %q", rec.Code, rec.Body.String())
	}
	if before.Generation != 0 || before.Fingerprint == "" {
		t.Fatalf("fresh graph = %+v, want generation 0 with a fingerprint", before)
	}

	solveBody := `{"dataset":"Flixster","k":5,"seedsB":[1,2,3],"fixedTheta":2000,"evalRuns":500,"seed":7}`
	var warm solveResp
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", solveBody, &warm); rec.Code != http.StatusOK {
		t.Fatalf("warm solve = %d %q", rec.Code, rec.Body.String())
	}
	st := s.Index().Stats()
	builds := st.Misses
	if builds == 0 {
		t.Fatal("warm solve built no collections")
	}
	if st.PostingsBytes != 0 {
		t.Fatalf("never-patched graph holds %d postings bytes, want 0", st.PostingsBytes)
	}

	patchBody, ups := reweightBatch(t, d.Graph, 5, 0.5)
	var pr patchResp
	if rec := do(t, s, http.MethodPatch, "/v1/graphs/Flixster/edges", patchBody, &pr); rec.Code != http.StatusOK {
		t.Fatalf("patch = %d %q", rec.Code, rec.Body.String())
	}
	if pr.Generation != 1 {
		t.Fatalf("generation = %d, want 1", pr.Generation)
	}
	if pr.Fingerprint == before.Fingerprint || pr.Fingerprint == "" {
		t.Fatalf("fingerprint %q did not change from %q", pr.Fingerprint, before.Fingerprint)
	}
	if pr.Edges != before.Edges || pr.Nodes != before.Nodes {
		t.Fatalf("reweight-only patch changed shape: %+v vs %+v", pr.graphInfoResp, before)
	}
	if pr.Repair.Collections == 0 || pr.Repair.Repaired != pr.Repair.Collections || pr.Repair.Fallbacks != 0 {
		t.Fatalf("repair summary %+v, want every collection repaired", pr.Repair)
	}
	if st := s.Index().Stats(); st.Repairs != int64(pr.Repair.Repaired) || st.RepairFallbacks != 0 ||
		st.PostingsDerived != int64(pr.Repair.Collections) || st.PostingsBytes == 0 {
		t.Fatalf("index stats %+v disagree with repair summary %+v", st, pr.Repair)
	}

	// The repaired collections answer the same solve warm...
	var after solveResp
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", solveBody, &after); rec.Code != http.StatusOK {
		t.Fatalf("post-patch solve = %d %q", rec.Code, rec.Body.String())
	}
	if st := s.Index().Stats(); st.Misses != builds {
		t.Fatalf("post-patch solve rebuilt collections: %d builds, want %d", st.Misses, builds)
	}

	// ...and byte-identically to a cold solve on the patched topology.
	patched, _, err := d.Graph.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	cold := newTestServer(t, datasets.New("Flixster", patched, d.GAP, "preloaded"))
	t.Cleanup(cold.Close)
	var want solveResp
	if rec := do(t, cold, http.MethodPost, "/v1/selfinfmax", solveBody, &want); rec.Code != http.StatusOK {
		t.Fatalf("cold solve = %d %q", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(after.Seeds, want.Seeds) || after.Objective != want.Objective {
		t.Fatalf("repaired solve (%v, %v) != cold solve on patched graph (%v, %v)",
			after.Seeds, after.Objective, want.Seeds, want.Objective)
	}

	// The describe endpoint reports the patched generation too.
	var now graphInfoResp
	do(t, s, http.MethodGet, "/v1/graphs/Flixster", "", &now)
	if now.Generation != 1 || now.Fingerprint != pr.Fingerprint {
		t.Fatalf("describe after patch = %+v, want generation 1 / fingerprint %q", now, pr.Fingerprint)
	}
}

// TestPatchRejectsBadUpdates pins the ApplyUpdates failure path: a batch
// naming a nonexistent edge is rejected atomically with 400, and the
// graph's generation does not advance.
func TestPatchRejectsBadUpdates(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	t.Cleanup(s.Close)
	rec := do(t, s, http.MethodPatch, "/v1/graphs/Flixster/edges",
		`{"updates":[{"op":"remove","u":0,"v":0}]}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad batch = %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	if e := decodeEnvelope(t, rec); e.Code != "invalid_argument" {
		t.Fatalf("code = %q", e.Code)
	}
	var info graphInfoResp
	do(t, s, http.MethodGet, "/v1/graphs/Flixster", "", &info)
	if info.Generation != 0 {
		t.Fatalf("rejected patch advanced the generation to %d", info.Generation)
	}
}

// TestGraphInfoUnified pins satellite consistency: POST /v1/graphs, GET
// /v1/graphs, GET /v1/graphs/{name}, /v1/stats datasets, the solve
// response's graph context, and the PATCH response all return the same
// unified resource representation.
func TestGraphInfoUnified(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	t.Cleanup(s.Close)

	var created graphInfoResp
	upload := `{"name":"tiny","edgeList":"3 2\n0 1 0.6\n1 2 0.4\n"}`
	if rec := do(t, s, http.MethodPost, "/v1/graphs", upload, &created); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d %q", rec.Code, rec.Body.String())
	}

	var byName graphInfoResp
	do(t, s, http.MethodGet, "/v1/graphs/tiny", "", &byName)
	if !reflect.DeepEqual(created, byName) {
		t.Fatalf("POST representation %+v != GET %+v", created, byName)
	}

	var list struct {
		Graphs []graphInfoResp `json:"graphs"`
	}
	do(t, s, http.MethodGet, "/v1/graphs", "", &list)
	var stats struct {
		Datasets []graphInfoResp `json:"datasets"`
	}
	do(t, s, http.MethodGet, "/v1/stats", "", &stats)
	for surface, got := range map[string][]graphInfoResp{"list": list.Graphs, "stats": stats.Datasets} {
		found := false
		for _, gi := range got {
			if gi.Name == "tiny" {
				found = true
				if !reflect.DeepEqual(gi, created) {
					t.Fatalf("%s representation %+v != created %+v", surface, gi, created)
				}
			}
		}
		if !found {
			t.Fatalf("%s does not list the uploaded graph", surface)
		}
	}

	// The solve response carries the same representation of the version it
	// computed on.
	var solved struct {
		Graph graphInfoResp `json:"graph"`
	}
	body := `{"dataset":"tiny","k":1,"fixedTheta":200,"evalRuns":100}`
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", body, &solved); rec.Code != http.StatusOK {
		t.Fatalf("solve = %d %q", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(solved.Graph, created) {
		t.Fatalf("solve graph context %+v != created %+v", solved.Graph, created)
	}

	// And the PATCH response is the same object at the next generation.
	var pr patchResp
	if rec := do(t, s, http.MethodPatch, "/v1/graphs/tiny/edges",
		`{"updates":[{"op":"reweight","u":0,"v":1,"p":0.9}]}`, &pr); rec.Code != http.StatusOK {
		t.Fatalf("patch = %d %q", rec.Code, rec.Body.String())
	}
	var afterPatch graphInfoResp
	do(t, s, http.MethodGet, "/v1/graphs/tiny", "", &afterPatch)
	if !reflect.DeepEqual(pr.graphInfoResp, afterPatch) {
		t.Fatalf("PATCH representation %+v != GET %+v", pr.graphInfoResp, afterPatch)
	}
	if pr.Generation != 1 {
		t.Fatalf("patched generation = %d", pr.Generation)
	}
}

// TestPatchGenerationPinningRace drives concurrent solves against a
// stream of PATCH batches (run under -race in CI): every solve must
// complete against the exact generation it resolved — no torn graphs, no
// failed queries — while the generation advances underneath.
func TestPatchGenerationPinningRace(t *testing.T) {
	d := testDataset(t)
	s := newTestServer(t, d)
	t.Cleanup(s.Close)

	solveBody := `{"dataset":"Flixster","k":3,"seedsB":[1],"fixedTheta":500,"evalRuns":100,"seed":9}`
	const patches = 4
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*patches; i++ {
				rec := do(t, s, http.MethodPost, "/v1/selfinfmax", solveBody, nil)
				if rec.Code != http.StatusOK {
					t.Errorf("concurrent solve = %d %q", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	patchBody, _ := reweightBatch(t, d.Graph, 3, 0.9)
	for i := 0; i < patches; i++ {
		var pr patchResp
		if rec := do(t, s, http.MethodPatch, "/v1/graphs/Flixster/edges", patchBody, &pr); rec.Code != http.StatusOK {
			t.Fatalf("patch %d = %d %q", i, rec.Code, rec.Body.String())
		}
		if pr.Generation != int64(i+1) {
			t.Fatalf("patch %d landed at generation %d", i, pr.Generation)
		}
	}
	wg.Wait()

	// A solve after the storm answers on the final generation.
	var final struct {
		Graph graphInfoResp `json:"graph"`
	}
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", solveBody, &final); rec.Code != http.StatusOK {
		t.Fatalf("final solve = %d %q", rec.Code, rec.Body.String())
	}
	if final.Graph.Generation != patches {
		t.Fatalf("final solve ran on generation %d, want %d", final.Graph.Generation, patches)
	}
}

// TestPatchSnapshotRoundTrip pins persistence end to end: a restarted
// server restores its collections with their request metadata, so a PATCH
// after the restart still repairs them in place instead of dropping them.
func TestPatchSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(t)
	cfg := server.Config{
		Datasets: map[string]*comic.Dataset{"Flixster": d},
		MaxK:     50,
		MaxRuns:  20000,
		StateDir: dir,
	}
	solveBody := `{"dataset":"Flixster","k":5,"seedsB":[1,2,3],"fixedTheta":2000,"evalRuns":500,"seed":7}`

	s1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var warm solveResp
	if rec := do(t, s1, http.MethodPost, "/v1/selfinfmax", solveBody, &warm); rec.Code != http.StatusOK {
		t.Fatalf("warm solve = %d %q", rec.Code, rec.Body.String())
	}
	if serr := s1.SaveState(); serr != nil {
		t.Fatal(serr)
	}
	s1.Close()

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if st := s2.Index().Stats(); st.Restores == 0 {
		t.Fatalf("restart restored nothing: %+v", st)
	}

	patchBody, ups := reweightBatch(t, d.Graph, 5, 0.5)
	var pr patchResp
	if rec := do(t, s2, http.MethodPatch, "/v1/graphs/Flixster/edges", patchBody, &pr); rec.Code != http.StatusOK {
		t.Fatalf("patch = %d %q", rec.Code, rec.Body.String())
	}
	if pr.Repair.Collections == 0 || pr.Repair.Repaired != pr.Repair.Collections {
		t.Fatalf("restored collections not repaired: %+v", pr.Repair)
	}

	// The repaired restore answers warm and matches a cold solve on the
	// patched topology.
	var after solveResp
	if rec := do(t, s2, http.MethodPost, "/v1/selfinfmax", solveBody, &after); rec.Code != http.StatusOK {
		t.Fatalf("post-patch solve = %d %q", rec.Code, rec.Body.String())
	}
	if st := s2.Index().Stats(); st.Misses != 0 {
		t.Fatalf("post-restart post-patch solve went cold: %+v", st)
	}
	patched, _, err := d.Graph.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	cold := newTestServer(t, datasets.New("Flixster", patched, d.GAP, "preloaded"))
	t.Cleanup(cold.Close)
	var want solveResp
	if rec := do(t, cold, http.MethodPost, "/v1/selfinfmax", solveBody, &want); rec.Code != http.StatusOK {
		t.Fatalf("cold solve = %d %q", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(after.Seeds, want.Seeds) || after.Objective != want.Objective {
		t.Fatalf("restored+repaired solve (%v, %v) != cold solve (%v, %v)",
			after.Seeds, after.Objective, want.Seeds, want.Objective)
	}

	// A patched preloaded graph survives yet another restart: its topology
	// now comes from the persisted edge list, not Config.
	if serr := s2.SaveState(); serr != nil {
		t.Fatal(serr)
	}
	s2.Close()
	s3, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s3.Close)
	var info graphInfoResp
	do(t, s3, http.MethodGet, "/v1/graphs/Flixster", "", &info)
	if info.Generation != 1 || info.Fingerprint != pr.Fingerprint {
		t.Fatalf("second restart lost the patch: %+v, want generation 1 / fingerprint %q", info, pr.Fingerprint)
	}
	var again solveResp
	if rec := do(t, s3, http.MethodPost, "/v1/selfinfmax", solveBody, &again); rec.Code != http.StatusOK {
		t.Fatalf("post-second-restart solve = %d %q", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(again.Seeds, want.Seeds) || again.Objective != want.Objective {
		t.Fatalf("second restart drifted: (%v, %v) != (%v, %v)",
			again.Seeds, again.Objective, want.Seeds, want.Objective)
	}
}

// TestPatchSeedQualityMatchesExact cross-checks post-repair seed quality
// against the internal/exact enumeration oracle on a ≤12-node graph: the
// seed the repaired path selects must score exactly as well as the true
// single-seed argmax on the patched topology.
func TestPatchSeedQualityMatchesExact(t *testing.T) {
	// Deterministic p=1 edges and GAP boundaries at 1 keep the post-patch
	// class count tiny: only the two reweighted edges add edge dimensions,
	// and each α threshold splits into two ranges instead of three.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 5, 1)
	g := b.MustBuild()
	gap := core.GAP{QA0: 0.5, QAB: 1, QB0: 0.4, QBA: 1} // mutual complementarity
	d := datasets.New("tiny", g, gap, "preloaded")
	s, err := server.New(server.Config{
		Datasets: map[string]*comic.Dataset{"tiny": d},
		MaxK:     10,
		MaxRuns:  50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	solveBody := `{"dataset":"tiny","k":1,"fixedTheta":20000,"evalRuns":20000,"seed":5}`
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", solveBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("warm solve = %d %q", rec.Code, rec.Body.String())
	}
	// The batch mixes all three ops so the repair path covers EID remapping,
	// not just in-place reweights.
	patchBody := `{"updates":[
		{"op":"reweight","u":0,"v":1,"p":0.6},
		{"op":"reweight","u":2,"v":3,"p":0.5},
		{"op":"remove","u":2,"v":5},
		{"op":"add","u":1,"v":4,"p":1}
	]}`
	ups := []graph.EdgeUpdate{
		{Op: graph.OpReweight, U: 0, V: 1, P: 0.6},
		{Op: graph.OpReweight, U: 2, V: 3, P: 0.5},
		{Op: graph.OpRemove, U: 2, V: 5},
		{Op: graph.OpAdd, U: 1, V: 4, P: 1},
	}
	var pr patchResp
	if rec := do(t, s, http.MethodPatch, "/v1/graphs/tiny/edges", patchBody, &pr); rec.Code != http.StatusOK {
		t.Fatalf("patch = %d %q", rec.Code, rec.Body.String())
	}
	var res solveResp
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", solveBody, &res); rec.Code != http.StatusOK {
		t.Fatalf("post-patch solve = %d %q", rec.Code, rec.Body.String())
	}
	if len(res.Seeds) != 1 {
		t.Fatalf("seeds = %v, want one", res.Seeds)
	}

	patched, _, err := g.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	best := -1.0
	for v := int32(0); v < int32(patched.N()); v++ {
		sigma, xerr := exact.SigmaA(patched, gap, []int32{v}, nil)
		if xerr != nil {
			t.Fatal(xerr)
		}
		if sigma > best {
			best = sigma
		}
	}
	got, err := exact.SigmaA(patched, gap, res.Seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got < best-0.2 {
		t.Fatalf("post-repair seed %v scores %v exactly; argmax on the patched graph is %v", res.Seeds, got, best)
	}
}
