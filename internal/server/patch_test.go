package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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

// TestPatchAdvancesGenerationAndDrops is the happy path: a PATCH advances
// the generation, changes the fingerprint and drops the old generation's
// warm collections, and the next identical solve rebuilds them on the
// patched topology, byte-identical to a cold solve there.
func TestPatchAdvancesGenerationAndDrops(t *testing.T) {
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
	builds := s.Index().Stats().Misses
	if builds == 0 {
		t.Fatal("warm solve built no collections")
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
	if pr.Repair.Collections != int(builds) || pr.Repair.Fallbacks != pr.Repair.Collections ||
		pr.Repair.Repaired != 0 || pr.Repair.ReusedSets != 0 || pr.Repair.RepairedSets != 0 {
		t.Fatalf("repair summary %+v, want all %d collections dropped", pr.Repair, builds)
	}
	if st := s.Index().Stats(); st.Drops != builds || st.ResidentCollections != 0 {
		t.Fatalf("index stats %+v, want %d drops and nothing resident", st, builds)
	}

	// The next solve rebuilds the collections on the patched graph...
	var after solveResp
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", solveBody, &after); rec.Code != http.StatusOK {
		t.Fatalf("post-patch solve = %d %q", rec.Code, rec.Body.String())
	}
	if st := s.Index().Stats(); st.Misses != 2*builds {
		t.Fatalf("post-patch solve: %d builds in total, want %d", st.Misses, 2*builds)
	}

	// ...byte-identically to a cold solve on the patched topology.
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
		t.Fatalf("post-patch solve (%v, %v) != cold solve on patched graph (%v, %v)",
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
// failed queries — while the generation advances underneath. Afterwards
// every superseded generation has drained from the index, including
// entries that in-flight solves inserted after their patch.
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
	// Exactly the final generation's lower- and upper-bound collections
	// remain: a repeat of the final solve hits both, and nothing else is
	// resident.
	before := s.Index().Stats()
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", solveBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("repeat solve = %d %q", rec.Code, rec.Body.String())
	}
	st := s.Index().Stats()
	if st.ResidentCollections != 2 || st.Hits != before.Hits+2 || st.Misses != before.Misses {
		t.Fatalf("after the storm: %d resident, %d hits, %d misses; want 2 resident and a 2-hit repeat (before: %d hits, %d misses)",
			st.ResidentCollections, st.Hits, st.Misses, before.Hits, before.Misses)
	}
}

// TestPatchSnapshotRoundTrip pins persistence end to end: a restarted
// server restores its collections, a PATCH after the restart drops them,
// the next solve matches a cold solve on the patched topology, and the
// patched generation survives another restart.
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
	restored := s2.Index().Stats().Restores
	if restored == 0 {
		t.Fatalf("restart restored nothing: %+v", s2.Index().Stats())
	}

	patchBody, ups := reweightBatch(t, d.Graph, 5, 0.5)
	var pr patchResp
	if rec := do(t, s2, http.MethodPatch, "/v1/graphs/Flixster/edges", patchBody, &pr); rec.Code != http.StatusOK {
		t.Fatalf("patch = %d %q", rec.Code, rec.Body.String())
	}
	if pr.Repair.Collections != int(restored) || pr.Repair.Fallbacks != pr.Repair.Collections {
		t.Fatalf("restored collections not dropped: %+v, want all %d", pr.Repair, restored)
	}

	// The post-patch solve rebuilds on the patched topology and matches a
	// cold solve there.
	var after solveResp
	if rec := do(t, s2, http.MethodPost, "/v1/selfinfmax", solveBody, &after); rec.Code != http.StatusOK {
		t.Fatalf("post-patch solve = %d %q", rec.Code, rec.Body.String())
	}
	if st := s2.Index().Stats(); st.Misses != restored {
		t.Fatalf("post-patch solve built %d collections, want %d", st.Misses, restored)
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
		t.Fatalf("post-restart post-patch solve (%v, %v) != cold solve (%v, %v)",
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

// TestPatchSeedQualityMatchesExact cross-checks post-patch seed quality
// against the internal/exact enumeration oracle on a ≤12-node graph: the
// seed a solve selects after the patch must score exactly as well as the
// true single-seed argmax on the patched topology.
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
	// The batch mixes all three ops, so the patched graph's edge ids move,
	// not just its weights.
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
		t.Fatalf("post-patch seed %v scores %v exactly; argmax on the patched graph is %v", res.Seeds, got, best)
	}
}

// TestRefusedPatchKeepsCacheWarm pins the PATCH order: the old
// generation's collections are dropped only after the new generation is
// persisted and published. A patch whose edge list cannot be persisted is
// refused with 500, the graph stays at generation 0, and the next
// identical solve is answered from the index.
func TestRefusedPatchKeepsCacheWarm(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	s, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var warm solveResp
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &warm); rec.Code != http.StatusOK {
		t.Fatalf("warm solve = %d %q", rec.Code, rec.Body.String())
	}
	before := s.Index().Stats()

	// A non-empty directory where the patched edge list must go: the
	// atomic rename onto it fails.
	sum := sha256.Sum256([]byte("Flixster"))
	edges := filepath.Join(dir, "graphs", hex.EncodeToString(sum[:16])+".edges")
	if err := os.MkdirAll(filepath.Join(edges, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	patchBody, _ := reweightBatch(t, d.Graph, 5, 0.5)
	if rec := do(t, s, http.MethodPatch, "/v1/graphs/Flixster/edges", patchBody, nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("patch with unwritable edge list = %d %q, want 500", rec.Code, rec.Body.String())
	}
	var info graphInfoResp
	do(t, s, http.MethodGet, "/v1/graphs/Flixster", "", &info)
	if info.Generation != 0 {
		t.Fatalf("refused patch advanced the generation to %d", info.Generation)
	}

	var again solveResp
	if rec := do(t, s, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &again); rec.Code != http.StatusOK {
		t.Fatalf("solve after refused patch = %d %q", rec.Code, rec.Body.String())
	}
	st := s.Index().Stats()
	if st.Misses != before.Misses || st.Hits != before.Hits+before.Misses {
		t.Fatalf("solve after refused patch: %d misses, %d hits; want %d misses, %d hits",
			st.Misses, st.Hits, before.Misses, before.Hits+before.Misses)
	}
	if !reflect.DeepEqual(again.Seeds, warm.Seeds) || again.Objective != warm.Objective {
		t.Fatalf("solve after refused patch (%v, %v) != warm solve (%v, %v)",
			again.Seeds, again.Objective, warm.Seeds, warm.Objective)
	}
}
