package server_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"comic"
	"comic/internal/graph"
	"comic/internal/rng"
	"comic/internal/rrset"
	"comic/internal/server"
)

// snapGraph builds a deterministic small graph for index-level snapshot
// tests.
func snapGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g := graph.PowerLaw(200, 5, 2.16, true, rng.New(7))
	graph.AssignWeightedCascade(g)
	return g
}

// snapReq is a cacheable IC collection request with the given θ (distinct
// θ ⇒ distinct cache key ⇒ distinct collection).
func snapReq(g *graph.Graph, theta int) rrset.CollectionRequest {
	return rrset.CollectionRequest{
		GraphID: "snap#1",
		Graph:   g,
		Kind:    rrset.KindIC,
		K:       5,
		Opts:    rrset.Options{FixedTheta: theta, Workers: 1},
		Seed:    42,
	}
}

// snapScope is one place index entries persist: the state directory
// (SaveSnapshot/LoadSnapshot) or graph version snap#1's prefix in a shared
// store (PublishGraph/AdoptGraph). dir is where its manifest and entry
// objects sit on disk.
type snapScope struct {
	dir  string
	save func(*server.Index) error
	load func(*server.Index) (int, error)
}

// snapScopes open a fresh, empty instance of each scope over g.
var snapScopes = []struct {
	name string
	open func(t *testing.T, g *graph.Graph) snapScope
}{
	{"state-dir", func(t *testing.T, g *graph.Graph) snapScope {
		dir := filepath.Join(t.TempDir(), "index")
		return snapScope{
			dir:  dir,
			save: func(x *server.Index) error { return x.SaveSnapshot(dir) },
			load: func(x *server.Index) (int, error) {
				return x.LoadSnapshot(dir, map[string]*graph.Graph{"snap#1": g})
			},
		}
	}},
	{"published", func(t *testing.T, g *graph.Graph) snapScope {
		st, err := server.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return snapScope{
			dir: publishedDir(st, "snap#1"),
			save: func(x *server.Index) error {
				_, perr := x.PublishGraph(st, "snap#1")
				return perr
			},
			load: func(x *server.Index) (int, error) { return x.AdoptGraph(st, "snap#1", g) },
		}
	}},
}

// publishedDir is where st keeps graph version graphID's published objects:
// the store's documented prefix, graphs/<hex of sha256(graphID)[:16]>.
func publishedDir(st *server.DirStore, graphID string) string {
	sum := sha256.Sum256([]byte(graphID))
	return filepath.Join(st.Root(), "graphs", hex.EncodeToString(sum[:16]))
}

// rrsFiles globs the snapshot entry files in dir.
func rrsFiles(tb testing.TB, dir string) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.rrs"))
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

// readManifest decodes MANIFEST.json in dir.
func readManifest(tb testing.TB, dir string) []struct {
	File    string `json:"file"`
	GraphID string `json:"graphID"`
	Bytes   int64  `json:"bytes"`
} {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var man struct {
		Version int `json:"version"`
		Entries []struct {
			File    string `json:"file"`
			GraphID string `json:"graphID"`
			Bytes   int64  `json:"bytes"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		tb.Fatal(err)
	}
	if man.Version != 1 {
		tb.Fatalf("manifest version %d", man.Version)
	}
	return man.Entries
}

func TestIndexSnapshotRoundTrip(t *testing.T) {
	g := snapGraph(t)
	dir := t.TempDir()
	idx := server.NewIndex(0)
	reqs := []rrset.CollectionRequest{snapReq(g, 300), snapReq(g, 500)}
	want := make([]*rrset.Collection, len(reqs))
	for i, req := range reqs {
		col, err := idx.Collection(req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = col
	}
	if serr := idx.SaveSnapshot(dir); serr != nil {
		t.Fatal(serr)
	}
	if st := idx.Stats(); st.Snapshots != 1 || st.SnapshotErrors != 0 {
		t.Fatalf("save stats %+v", st)
	}

	fresh := server.NewIndex(0)
	n, err := fresh.LoadSnapshot(dir, map[string]*graph.Graph{"snap#1": g})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || fresh.Len() != 2 {
		t.Fatalf("restored %d entries, Len %d, want 2", n, fresh.Len())
	}
	st := fresh.Stats()
	if st.Restores != 2 || st.RestoreRejects != 0 {
		t.Fatalf("restore stats %+v", st)
	}
	if st.ResidentBytes != want[0].Bytes()+want[1].Bytes() {
		t.Fatalf("restored bytes %d != exact sum %d", st.ResidentBytes, want[0].Bytes()+want[1].Bytes())
	}
	// The restored entries answer as hits with collections equal to the
	// originals — zero builds.
	for i, req := range reqs {
		col, err := fresh.Collection(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(col, want[i]) {
			t.Fatalf("restored collection %d differs from original", i)
		}
	}
	if st := fresh.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("after restored queries: hits %d misses %d, want 2/0", st.Hits, st.Misses)
	}

	// Older writers recorded hasOrder, hasPostings and the originating
	// request on every manifest entry. Such a manifest still restores every
	// entry.
	manPath := filepath.Join(dir, "MANIFEST.json")
	raw, rerr := os.ReadFile(manPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var man map[string]any
	if uerr := json.Unmarshal(raw, &man); uerr != nil {
		t.Fatal(uerr)
	}
	for _, me := range man["entries"].([]any) {
		me := me.(map[string]any)
		me["hasOrder"] = true
		me["hasPostings"] = true
		me["request"] = map[string]any{"kind": "ic", "gap": map[string]any{"qa0": 0, "qab": 0, "qb0": 0, "qba": 0},
			"k": 5, "fixedTheta": 300, "seed": 42}
	}
	if raw, rerr = json.Marshal(man); rerr != nil {
		t.Fatal(rerr)
	}
	if werr := os.WriteFile(manPath, raw, 0o644); werr != nil {
		t.Fatal(werr)
	}
	legacy := server.NewIndex(0)
	if n, lerr := legacy.LoadSnapshot(dir, map[string]*graph.Graph{"snap#1": g}); lerr != nil || n != 2 {
		t.Fatalf("legacy manifest restored %d entries (err %v), want 2", n, lerr)
	}
	if st := legacy.Stats(); st.Restores != 2 || st.RestoreRejects != 0 {
		t.Fatalf("legacy manifest restore stats %+v, want 2 restores and 0 rejects", st)
	}
	for i, req := range reqs {
		col, cerr := legacy.Collection(req)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if !reflect.DeepEqual(col, want[i]) {
			t.Fatalf("collection %d restored from the legacy manifest differs from original", i)
		}
	}
}

func TestLoadSnapshotPreservesLRUOrderAndBudget(t *testing.T) {
	g := snapGraph(t)
	for _, sc := range snapScopes {
		t.Run(sc.name, func(t *testing.T) {
			scope := sc.open(t, g)
			idx := server.NewIndex(0)
			reqA, reqB, reqC := snapReq(g, 200), snapReq(g, 300), snapReq(g, 400)
			colA, _ := idx.Collection(reqA)
			if _, err := idx.Collection(reqB); err != nil {
				t.Fatal(err)
			}
			colC, _ := idx.Collection(reqC)
			if _, err := idx.Collection(reqA); err != nil { // touch A: LRU order is now A,C,B
				t.Fatal(err)
			}
			if serr := scope.save(idx); serr != nil {
				t.Fatal(serr)
			}

			// Budget for exactly A+C: B (the coldest) must be left behind, and
			// nothing after the first overflow may sneak in.
			budget := colA.Bytes() + colC.Bytes()
			fresh := server.NewIndex(budget)
			n, err := scope.load(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Fatalf("restored %d entries under budget, want 2", n)
			}
			st := fresh.Stats()
			if st.RestoreRejects != 1 {
				t.Fatalf("RestoreRejects = %d, want 1 (budget)", st.RestoreRejects)
			}
			if st.ResidentBytes != budget {
				t.Fatalf("resident %d != budget %d", st.ResidentBytes, budget)
			}
			// A and C must answer warm, B must be a miss.
			if _, err := fresh.Collection(reqA); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Collection(reqC); err != nil {
				t.Fatal(err)
			}
			if st := fresh.Stats(); st.Hits != 2 || st.Misses != 0 {
				t.Fatalf("A/C not both restored: hits %d misses %d", st.Hits, st.Misses)
			}

			// Order proof: re-saving the restored (unbudgeted reload) index
			// to a second scope must reproduce the exact MRU-first manifest
			// order A, C, B.
			full := server.NewIndex(0)
			if _, err := scope.load(full); err != nil {
				t.Fatal(err)
			}
			scope2 := sc.open(t, g)
			if err := scope2.save(full); err != nil {
				t.Fatal(err)
			}
			want := readManifest(t, scope.dir)
			got := readManifest(t, scope2.dir)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restore did not preserve LRU order:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestLoadSnapshotSkipsCorruptEntries(t *testing.T) {
	g := snapGraph(t)
	for _, sc := range snapScopes {
		t.Run(sc.name, func(t *testing.T) {
			scope := sc.open(t, g)
			idx := server.NewIndex(0)
			for _, theta := range []int{200, 300, 400} {
				if _, err := idx.Collection(snapReq(g, theta)); err != nil {
					t.Fatal(err)
				}
			}
			if serr := scope.save(idx); serr != nil {
				t.Fatal(serr)
			}
			files := rrsFiles(t, scope.dir)
			if len(files) != 3 {
				t.Fatalf("want 3 entry files, got %d", len(files))
			}
			// Truncate one entry and flip another's format version; the
			// third survives.
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			// Truncate inside the core sections (the offsets array alone
			// outgrows this prefix), not merely inside an optional trailing
			// section — a lost optional section is tolerated by design, a
			// torn core is not.
			if werr := os.WriteFile(files[0], data[:200], 0o644); werr != nil {
				t.Fatal(werr)
			}
			data, err = os.ReadFile(files[1])
			if err != nil {
				t.Fatal(err)
			}
			data[4]++ // version field sits right after the 4-byte magic
			if werr := os.WriteFile(files[1], data, 0o644); werr != nil {
				t.Fatal(werr)
			}

			fresh := server.NewIndex(0)
			n, err := scope.load(fresh)
			if err != nil {
				t.Fatalf("corrupt entries must not fail the load: %v", err)
			}
			if n != 1 {
				t.Fatalf("restored %d entries, want 1", n)
			}
			if st := fresh.Stats(); st.Restores != 1 || st.RestoreRejects != 2 {
				t.Fatalf("stats %+v, want 1 restore / 2 rejects", st)
			}
			// Self-repair: the rejected files must be deleted so the next
			// save (which reuses the entry objects it finds) rewrites them
			// instead of re-referencing the corruption forever.
			if left := rrsFiles(t, scope.dir); len(left) != 1 {
				t.Fatalf("rejected entry files not deleted: %v", left)
			}
			for _, theta := range []int{200, 300, 400} { // rebuild what was lost
				if _, err := fresh.Collection(snapReq(g, theta)); err != nil {
					t.Fatal(err)
				}
			}
			if serr := scope.save(fresh); serr != nil {
				t.Fatal(serr)
			}
			repaired := server.NewIndex(0)
			if n, err := scope.load(repaired); err != nil || n != 3 {
				t.Fatalf("snapshot not repaired: restored %d err %v, want 3/nil", n, err)
			}
		})
	}
}

// TestLoadSnapshotConfinesEntryNames: a manifest entry naming a path
// outside its scope is rejected without touching that path. Next to the
// state directory's index/ sits graphs/, whose files are uploaded graphs.
func TestLoadSnapshotConfinesEntryNames(t *testing.T) {
	g := snapGraph(t)
	for _, sc := range snapScopes {
		t.Run(sc.name, func(t *testing.T) {
			scope := sc.open(t, g)
			idx := server.NewIndex(0)
			if _, err := idx.Collection(snapReq(g, 250)); err != nil {
				t.Fatal(err)
			}
			if serr := scope.save(idx); serr != nil {
				t.Fatal(serr)
			}
			victim := filepath.Join(filepath.Dir(scope.dir), "victim.json")
			if werr := os.WriteFile(victim, []byte("not a snapshot"), 0o644); werr != nil {
				t.Fatal(werr)
			}
			manPath := filepath.Join(scope.dir, "MANIFEST.json")
			data, err := os.ReadFile(manPath)
			if err != nil {
				t.Fatal(err)
			}
			var man map[string]any
			if uerr := json.Unmarshal(data, &man); uerr != nil {
				t.Fatal(uerr)
			}
			man["entries"].([]any)[0].(map[string]any)["file"] = "../victim.json"
			if data, err = json.Marshal(man); err != nil {
				t.Fatal(err)
			}
			if werr := os.WriteFile(manPath, data, 0o644); werr != nil {
				t.Fatal(werr)
			}

			fresh := server.NewIndex(0)
			if n, err := scope.load(fresh); err != nil || n != 0 {
				t.Fatalf("restored %d err %v from an escaping entry name, want 0/nil", n, err)
			}
			if st := fresh.Stats(); st.RestoreRejects != 1 {
				t.Fatalf("escaping entry name counted %d rejects, want 1", st.RestoreRejects)
			}
			if got, err := os.ReadFile(victim); err != nil || string(got) != "not a snapshot" {
				t.Fatalf("file outside the scope touched: %q, %v", got, err)
			}
		})
	}
}

func TestLoadSnapshotRejectsUnknownOrMismatchedGraph(t *testing.T) {
	g := snapGraph(t)
	dir := t.TempDir()
	idx := server.NewIndex(0)
	if _, err := idx.Collection(snapReq(g, 250)); err != nil {
		t.Fatal(err)
	}
	if serr := idx.SaveSnapshot(dir); serr != nil {
		t.Fatal(serr)
	}

	// Unknown GraphID: the graph is gone from the registry.
	fresh := server.NewIndex(0)
	if n, err := fresh.LoadSnapshot(dir, map[string]*graph.Graph{}); err != nil || n != 0 {
		t.Fatalf("unknown graphID: restored %d err %v, want 0/nil", n, err)
	}
	if st := fresh.Stats(); st.RestoreRejects != 1 {
		t.Fatalf("unknown graphID not counted: %+v", st)
	}

	// Same GraphID, different graph: the N/M guard must reject.
	other := graph.PowerLaw(50, 3, 2.16, false, rng.New(9))
	graph.AssignWeightedCascade(other)
	fresh2 := server.NewIndex(0)
	if n, err := fresh2.LoadSnapshot(dir, map[string]*graph.Graph{"snap#1": other}); err != nil || n != 0 {
		t.Fatalf("mismatched graph: restored %d err %v, want 0/nil", n, err)
	}
	if st := fresh2.Stats(); st.RestoreRejects != 1 {
		t.Fatalf("mismatched graph not counted: %+v", st)
	}
}

func TestDropGraphDeletesSnapshotFiles(t *testing.T) {
	g := snapGraph(t)
	dir := t.TempDir()
	idx := server.NewIndex(0)
	if _, err := idx.Collection(snapReq(g, 250)); err != nil {
		t.Fatal(err)
	}
	if serr := idx.SaveSnapshot(dir); serr != nil {
		t.Fatal(serr)
	}
	if got := len(rrsFiles(t, dir)); got != 1 {
		t.Fatalf("want 1 entry file, got %d", got)
	}
	if dropped := idx.DropGraph(g); dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
	if got := len(rrsFiles(t, dir)); got != 0 {
		t.Fatalf("DropGraph left %d snapshot files on disk", got)
	}
	// The stale manifest still references the deleted file; a load must
	// skip it cleanly.
	fresh := server.NewIndex(0)
	if n, err := fresh.LoadSnapshot(dir, map[string]*graph.Graph{"snap#1": g}); err != nil || n != 0 {
		t.Fatalf("restored %d err %v after drop, want 0/nil", n, err)
	}
}

func TestLoadSnapshotIgnoresCrashedWriterLeftovers(t *testing.T) {
	// A server killed mid-snapshot leaves only temp files behind — the
	// rename is the commit point — so a boot over the directory must see
	// exactly the previous snapshot.
	g := snapGraph(t)
	dir := t.TempDir()
	idx := server.NewIndex(0)
	col, err := idx.Collection(snapReq(g, 300))
	if err != nil {
		t.Fatal(err)
	}
	if serr := idx.SaveSnapshot(dir); serr != nil {
		t.Fatal(serr)
	}
	// Simulate the crash debris: a half-written entry and manifest.
	for _, name := range []string{"0123456789abcdef0123456789abcdef.rrs.tmp-42", "MANIFEST.json.tmp-7"} {
		if werr := os.WriteFile(filepath.Join(dir, name), []byte("partial garbage"), 0o644); werr != nil {
			t.Fatal(werr)
		}
	}
	fresh := server.NewIndex(0)
	n, err := fresh.LoadSnapshot(dir, map[string]*graph.Graph{"snap#1": g})
	if err != nil || n != 1 {
		t.Fatalf("restored %d err %v with tmp debris, want 1/nil", n, err)
	}
	got, err := fresh.Collection(snapReq(g, 300))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, col) {
		t.Fatal("restored collection differs after crash-debris load")
	}
	// The next snapshot prunes the debris.
	if serr := fresh.SaveSnapshot(dir); serr != nil {
		t.Fatal(serr)
	}
	leftover, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("SaveSnapshot left temp debris: %v", leftover)
	}
}

// --- server-level persistence ---

// stateConfig is a Config with persistence for the Flixster stand-in.
func stateConfig(d *comic.Dataset, dir string) server.Config {
	return server.Config{
		Datasets: map[string]*comic.Dataset{"Flixster": d},
		MaxK:     50,
		MaxRuns:  20000,
		StateDir: dir,
	}
}

const snapSolveBody = `{"dataset":"Flixster","k":5,"seedsB":[1,2],"fixedTheta":2000,"evalRuns":300,"seed":9}`

// uploadBody is a small two-item-complementary graph upload.
const snapUploadBody = `{"name":"mine","gap":{"qa0":0.6,"qab":0.9,"qb0":0.6,"qba":0.9},` +
	`"edgeList":"4 3\n0 1 0.9\n1 2 0.9\n2 3 0.9\n"}`

func TestNewSweepsGraphTempFiles(t *testing.T) {
	// A process that died mid-persist leaves writeFileAtomic's temp files
	// in <state>/graphs. The next server over the directory, its one owner,
	// removes them at start-up.
	d := testDataset(t)
	dir := t.TempDir()
	graphs := filepath.Join(dir, "graphs")
	if err := os.MkdirAll(graphs, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := []string{"0123456789abcdef.edges.tmp-9", "0123456789abcdef.json.tmp-4"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(graphs, name), []byte("partial upload"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(graphs, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s survived New (stat err %v)", name, err)
		}
	}
}

func TestServerRestoreParity(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	s1, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s1, http.MethodPost, "/v1/graphs", snapUploadBody, nil); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d: %s", rec.Code, rec.Body.String())
	}
	var before, beforeMine solveResp
	do(t, s1, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &before)
	mineBody := `{"dataset":"mine","k":2,"fixedTheta":500,"evalRuns":200,"seed":3}`
	do(t, s1, http.MethodPost, "/v1/selfinfmax", mineBody, &beforeMine)
	preStats := s1.Index().Stats()
	if preStats.Misses == 0 {
		t.Fatal("cold server built nothing — test is vacuous")
	}
	if serr := s1.SaveState(); serr != nil {
		t.Fatal(serr)
	}
	s1.Close()

	// The restart: same config, same state dir.
	s2, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// The uploaded graph survived with its identity intact.
	var info struct {
		Name   string `json:"name"`
		Nodes  int    `json:"nodes"`
		Edges  int    `json:"edges"`
		Source string `json:"source"`
	}
	if rec := do(t, s2, http.MethodGet, "/v1/graphs/mine", "", &info); rec.Code != http.StatusOK {
		t.Fatalf("restored graph lookup = %d", rec.Code)
	}
	if info.Nodes != 4 || info.Edges != 3 || info.Source != "uploaded" {
		t.Fatalf("restored graph info %+v", info)
	}

	// Restore parity: byte-identical seed sets, and the first warm queries
	// build zero collections.
	var after, afterMine solveResp
	do(t, s2, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &after)
	do(t, s2, http.MethodPost, "/v1/selfinfmax", mineBody, &afterMine)
	if !reflect.DeepEqual(after.Seeds, before.Seeds) || after.Objective != before.Objective {
		t.Fatalf("restored solve diverged: %v/%v vs %v/%v",
			after.Seeds, after.Objective, before.Seeds, before.Objective)
	}
	if !reflect.DeepEqual(afterMine.Seeds, beforeMine.Seeds) {
		t.Fatalf("restored uploaded-graph solve diverged: %v vs %v", afterMine.Seeds, beforeMine.Seeds)
	}
	st := s2.Index().Stats()
	if st.Misses != 0 {
		t.Fatalf("restored server built %d collections, want 0 (restores %d, rejects %d)",
			st.Misses, st.Restores, st.RestoreRejects)
	}
	if st.Hits == 0 || st.Restores == 0 {
		t.Fatalf("restored server served nothing warm: %+v", st)
	}
}

func TestServerRestoreAfterDelete(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	s1, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s1, http.MethodPost, "/v1/graphs", snapUploadBody, nil); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d", rec.Code)
	}
	var out solveResp
	do(t, s1, http.MethodPost, "/v1/selfinfmax", `{"dataset":"mine","k":2,"fixedTheta":500,"evalRuns":200,"seed":3}`, &out)
	if serr := s1.SaveState(); serr != nil {
		t.Fatal(serr)
	}
	if rec := do(t, s1, http.MethodDelete, "/v1/graphs/mine", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d", rec.Code)
	}
	s1.Close()

	s2, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := do(t, s2, http.MethodGet, "/v1/graphs/mine", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("deleted graph resurrected by restart: %d", rec.Code)
	}
	// The deleted graph's collections must not have been rehydrated: the
	// only solve taken before the snapshot was on "mine".
	if st := s2.Index().Stats(); st.Restores != 0 {
		t.Fatalf("restored %d collections of a deleted graph", st.Restores)
	}
}

func TestUploadPersistsWithoutExplicitSave(t *testing.T) {
	// Uploads are persisted as they arrive — a crash before any snapshot
	// (no SaveState) must not lose them; only the RR-index warmth is gone.
	d := testDataset(t)
	dir := t.TempDir()
	s1, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s1, http.MethodPost, "/v1/graphs", snapUploadBody, nil); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d", rec.Code)
	}
	s1.Close() // no SaveState: simulates a non-graceful exit for the index

	s2, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := do(t, s2, http.MethodGet, "/v1/graphs/mine", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("upload lost without explicit save: %d", rec.Code)
	}
	var out solveResp
	if rec := do(t, s2, http.MethodPost, "/v1/selfinfmax",
		`{"dataset":"mine","k":2,"fixedTheta":500,"evalRuns":200,"seed":3}`, &out); rec.Code != http.StatusOK {
		t.Fatalf("solve on restored upload = %d", rec.Code)
	}
	if st := s2.Index().Stats(); st.Misses == 0 {
		t.Fatal("index should be cold (no snapshot was taken)")
	}
}

func TestServerStaleDatasetSnapshotRejected(t *testing.T) {
	// The same dataset name rebuilt with different content (another seed)
	// must not serve the old snapshot: the fingerprint mints a fresh cache
	// ID and the stale collections are rejected at load.
	dir := t.TempDir()
	s1, err := server.New(stateConfig(comic.FlixsterDataset(0.02, 1), dir))
	if err != nil {
		t.Fatal(err)
	}
	var out solveResp
	do(t, s1, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &out)
	if serr := s1.SaveState(); serr != nil {
		t.Fatal(serr)
	}
	s1.Close()

	s2, err := server.New(stateConfig(comic.FlixsterDataset(0.02, 2), dir)) // different content
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Index().Stats()
	if st.Restores != 0 {
		t.Fatalf("restored %d collections for a changed graph", st.Restores)
	}
	if st.RestoreRejects == 0 {
		t.Fatal("stale snapshot entries were not counted as rejects")
	}
	var out2 solveResp
	if rec := do(t, s2, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &out2); rec.Code != http.StatusOK {
		t.Fatalf("solve on re-fingerprinted dataset = %d", rec.Code)
	}
	if s2.Index().Stats().Misses == 0 {
		t.Fatal("changed graph must solve cold")
	}
}

func TestStatsExposeSnapshotCounters(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	s1, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	var out solveResp
	do(t, s1, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &out)
	if serr := s1.SaveState(); serr != nil {
		t.Fatal(serr)
	}
	s1.Close()
	s2, err := server.New(stateConfig(d, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var stats struct {
		Index map[string]any `json:"index"`
	}
	do(t, s2, http.MethodGet, "/v1/stats", "", &stats)
	for _, key := range []string{"snapshots", "snapshotErrors", "restores", "restoreRejects"} {
		if _, ok := stats.Index[key]; !ok {
			t.Fatalf("/v1/stats index block missing %q: %v", key, stats.Index)
		}
	}
	if got := stats.Index["restores"].(float64); got == 0 {
		t.Fatal("restores counter not surfaced")
	}
}

func TestSaveStateWithoutStateDir(t *testing.T) {
	s := newTestServer(t, testDataset(t))
	defer s.Close()
	if err := s.SaveState(); err == nil {
		t.Fatal("SaveState without StateDir must error")
	}
}

// TestServeListenerSnapshotOnShutdown pins the snapshot-on-SIGTERM path:
// a graceful shutdown (context cancel, what the comic-serve signal handler
// triggers) persists the index, and the next boot answers the same query
// without building anything.
func TestServeListenerSnapshotOnShutdown(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	cfg := stateConfig(d, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go func() { errc <- server.ServeListener(ctx, l, cfg) }()

	var before solveResp
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Post("http://"+addr+"/v1/selfinfmax", "application/json",
			strings.NewReader(snapSolveBody))
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve = %d: %s", resp.StatusCode, body)
	}
	if uerr := json.Unmarshal(body, &before); uerr != nil {
		t.Fatal(uerr)
	}
	cancel() // the SIGTERM
	if serr := <-errc; serr != nil {
		t.Fatalf("graceful shutdown returned %v", serr)
	}

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var after solveResp
	do(t, s2, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &after)
	if !reflect.DeepEqual(after.Seeds, before.Seeds) {
		t.Fatalf("post-restart seeds %v != pre-shutdown %v", after.Seeds, before.Seeds)
	}
	if st := s2.Index().Stats(); st.Misses != 0 || st.Restores == 0 {
		t.Fatalf("shutdown snapshot not restored: %+v", st)
	}
}

func TestPeriodicSnapshotLoop(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	cfg := stateConfig(d, dir)
	cfg.SnapshotInterval = 10 * time.Millisecond
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out solveResp
	do(t, s, http.MethodPost, "/v1/selfinfmax", snapSolveBody, &out)
	deadline := time.Now().Add(5 * time.Second)
	for s.Index().Stats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic loop never snapshotted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close() // must stop the loop (and not hang)

	s2, err := server.New(stateConfig(d, dir)) // interval not needed to restore
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Index().Stats(); st.Restores == 0 {
		t.Fatalf("periodic snapshot not restorable: %+v", st)
	}
}
