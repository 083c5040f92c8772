package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"comic/internal/rrset"
	"comic/internal/server"
)

func putString(t *testing.T, st server.SnapshotStore, name, body string) {
	t.Helper()
	if err := st.Put(name, func(w io.Writer) error {
		_, err := io.WriteString(w, body)
		return err
	}); err != nil {
		t.Fatalf("Put(%q): %v", name, err)
	}
}

func getString(t *testing.T, st server.SnapshotStore, name string) string {
	t.Helper()
	rc, err := st.Get(name)
	if err != nil {
		t.Fatalf("Get(%q): %v", name, err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestDirStoreCRUD(t *testing.T) {
	st, err := server.NewDirStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if pingErr := st.Ping(); pingErr != nil {
		t.Fatalf("Ping on a fresh store: %v", pingErr)
	}

	putString(t, st, "graphs/ab/one.rrs", "hello")
	putString(t, st, "graphs/ab/two.rrs", "world")
	putString(t, st, "graphs/cd/one.rrs", "other prefix")
	if got := getString(t, st, "graphs/ab/one.rrs"); got != "hello" {
		t.Fatalf("Get = %q", got)
	}
	// Put replaces atomically.
	putString(t, st, "graphs/ab/one.rrs", "replaced")
	if got := getString(t, st, "graphs/ab/one.rrs"); got != "replaced" {
		t.Fatalf("Get after replace = %q", got)
	}

	names, err := st.List("graphs/ab")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"graphs/ab/one.rrs", "graphs/ab/two.rrs"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	if names, err := st.List("graphs/absent"); err != nil || names != nil {
		t.Fatalf("List(absent) = %v, %v; want nil, nil", names, err)
	}

	if _, err := st.Get("graphs/ab/absent.rrs"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get(absent) = %v, want fs.ErrNotExist", err)
	}
	if err := st.Delete("graphs/ab/one.rrs"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("graphs/ab/one.rrs"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get after Delete = %v, want fs.ErrNotExist", err)
	}
	if err := st.Delete("graphs/ab/one.rrs"); err != nil {
		t.Fatalf("Delete(absent) = %v, want nil", err)
	}
}

func TestDirStoreRejectsTraversal(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := server.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{"", "/abs", "trailing/", "a//b", "a/./b", "../escape", "a/../../b", "."}
	for _, name := range bad {
		if err := st.Put(name, func(io.Writer) error { return nil }); err == nil {
			t.Errorf("Put(%q) accepted a traversal-shaped name", name)
		}
		if _, err := st.Get(name); err == nil {
			t.Errorf("Get(%q) accepted a traversal-shaped name", name)
		}
		if err := st.Delete(name); err == nil {
			t.Errorf("Delete(%q) accepted a traversal-shaped name", name)
		}
	}
	// Nothing escaped the root.
	outside := filepath.Join(filepath.Dir(root), "escape")
	if _, err := os.Stat(outside); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("traversal name created %s", outside)
	}
}

func TestPublishAdoptRoundTrip(t *testing.T) {
	g := snapGraph(t)
	st, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idx := server.NewIndex(0)
	reqs := []rrset.CollectionRequest{snapReq(g, 300), snapReq(g, 500)}
	want := make([]*rrset.Collection, len(reqs))
	for i, req := range reqs {
		col, buildErr := idx.Collection(req)
		if buildErr != nil {
			t.Fatal(buildErr)
		}
		want[i] = col
	}

	n, err := idx.PublishGraph(st, "snap#1")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("published %d entries, want 2", n)
	}
	// Republishing is idempotent: deterministic collections mean existing
	// entry files are already byte-correct and are not rewritten.
	if again, repubErr := idx.PublishGraph(st, "snap#1"); repubErr != nil || again != 2 {
		t.Fatalf("republish = %d, %v; want 2, nil", again, repubErr)
	}

	fresh := server.NewIndex(0)
	adopted, err := fresh.AdoptGraph(st, "snap#1", g)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 2 || fresh.Len() != 2 {
		t.Fatalf("adopted %d entries, Len %d, want 2", adopted, fresh.Len())
	}
	if stats := fresh.Stats(); stats.Restores != 2 || stats.RestoreRejects != 0 {
		t.Fatalf("adopt stats %+v", stats)
	}
	// The adopted entries answer as hits with collections equal to the
	// publisher's — the whole point: warm state moved, nothing rebuilt.
	for i, req := range reqs {
		col, err := fresh.Collection(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(col, want[i]) {
			t.Fatalf("adopted collection %d differs from the published one", i)
		}
	}
	if stats := fresh.Stats(); stats.Hits != 2 || stats.Misses != 0 {
		t.Fatalf("after adopted queries: hits %d misses %d, want 2/0", stats.Hits, stats.Misses)
	}

	// Re-adoption skips the already-resident entries without rejects.
	if adopted, err := fresh.AdoptGraph(st, "snap#1", g); err != nil || adopted != 0 {
		t.Fatalf("re-adopt = %d, %v; want 0, nil", adopted, err)
	}
	if stats := fresh.Stats(); stats.RestoreRejects != 0 {
		t.Fatalf("re-adopt counted %d rejects", stats.RestoreRejects)
	}
}

func TestAdoptGraphStaleGenerationFenced(t *testing.T) {
	g := snapGraph(t)
	st, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idx := server.NewIndex(0)
	if _, buildErr := idx.Collection(snapReq(g, 300)); buildErr != nil {
		t.Fatal(buildErr)
	}
	if n, err := idx.PublishGraph(st, "snap#1"); err != nil || n != 1 {
		t.Fatalf("publish = %d, %v", n, err)
	}

	// The published snapshot belongs to version "snap#1". A node serving a
	// newer generation of the same graph adopts under its own versioned ID
	// and must find nothing: stale warm state is fenced by the version
	// prefix, never served.
	fresh := server.NewIndex(0)
	if adopted, err := fresh.AdoptGraph(st, "snap#2", g); err != nil || adopted != 0 {
		t.Fatalf("adopt of unpublished version = %d, %v; want 0, nil", adopted, err)
	}
	if fresh.Len() != 0 {
		t.Fatalf("stale-version adopt left %d resident entries", fresh.Len())
	}
}

func TestAdoptGraphRejectsForeignManifest(t *testing.T) {
	g := snapGraph(t)
	st, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idx := server.NewIndex(0)
	if _, buildErr := idx.Collection(snapReq(g, 300)); buildErr != nil {
		t.Fatal(buildErr)
	}
	if _, pubErr := idx.PublishGraph(st, "snap#1"); pubErr != nil {
		t.Fatal(pubErr)
	}

	// Copy version snap#1's published objects under snap#2's prefix — a
	// forged (or misplaced) manifest whose recorded GraphID disagrees with
	// the prefix it sits under. Adoption must refuse it wholesale: the
	// manifest names snap#1, the adopter serves snap#2.
	root := st.Root()
	des, err := os.ReadDir(filepath.Join(root, "graphs"))
	if err != nil || len(des) != 1 {
		t.Fatalf("expected exactly one version prefix, got %v, %v", des, err)
	}
	src := des[0].Name()
	sum := sha256.Sum256([]byte("snap#2"))
	dst := hex.EncodeToString(sum[:16]) // the store's documented prefix digest
	srcNames, err := st.List("graphs/" + src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range srcNames {
		body := getString(t, st, name)
		putString(t, st, "graphs/"+dst+"/"+strings.TrimPrefix(name, "graphs/"+src+"/"), body)
	}

	fresh := server.NewIndex(0)
	adopted, err := fresh.AdoptGraph(st, "snap#2", g)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 0 || fresh.Len() != 0 {
		t.Fatalf("foreign manifest adopted %d entries", adopted)
	}
	if stats := fresh.Stats(); stats.RestoreRejects != 1 {
		t.Fatalf("foreign manifest counted %d rejects, want 1", stats.RestoreRejects)
	}
}

func TestAdoptGraphToleratesTornManifest(t *testing.T) {
	g := snapGraph(t)
	st, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idx := server.NewIndex(0)
	if _, buildErr := idx.Collection(snapReq(g, 300)); buildErr != nil {
		t.Fatal(buildErr)
	}
	if _, pubErr := idx.PublishGraph(st, "snap#1"); pubErr != nil {
		t.Fatal(pubErr)
	}
	root := st.Root()
	des, err := os.ReadDir(filepath.Join(root, "graphs"))
	if err != nil || len(des) != 1 {
		t.Fatalf("expected exactly one version prefix, got %v, %v", des, err)
	}
	putString(t, st, "graphs/"+des[0].Name()+"/MANIFEST.json", "{ torn")

	fresh := server.NewIndex(0)
	adopted, err := fresh.AdoptGraph(st, "snap#1", g)
	if err != nil {
		t.Fatalf("a torn manifest must forfeit the adoption, not error: %v", err)
	}
	if adopted != 0 {
		t.Fatalf("torn manifest adopted %d entries", adopted)
	}
	if stats := fresh.Stats(); stats.RestoreRejects != 1 {
		t.Fatalf("torn manifest counted %d rejects, want 1", stats.RestoreRejects)
	}
}

func TestPublishGraphEmptyRetractsManifest(t *testing.T) {
	g := snapGraph(t)
	st, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idx := server.NewIndex(0)
	if _, buildErr := idx.Collection(snapReq(g, 300)); buildErr != nil {
		t.Fatal(buildErr)
	}
	if n, err := idx.PublishGraph(st, "snap#1"); err != nil || n != 1 {
		t.Fatalf("publish = %d, %v", n, err)
	}
	// A publisher with nothing resident for the version publishes an empty
	// manifest, so adopters see no entries, not stale ones.
	empty := server.NewIndex(0)
	if n, err := empty.PublishGraph(st, "snap#1"); err != nil || n != 0 {
		t.Fatalf("empty publish = %d, %v; want 0, nil", n, err)
	}
	fresh := server.NewIndex(0)
	if adopted, err := fresh.AdoptGraph(st, "snap#1", g); err != nil || adopted != 0 {
		t.Fatalf("adopt after retraction = %d, %v; want 0, nil", adopted, err)
	}
}

func TestPublishGraphPrunesEvicted(t *testing.T) {
	g := snapGraph(t)
	st, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reqA, reqB := snapReq(g, 300), snapReq(g, 500)
	idx := server.NewIndex(0)
	for _, req := range []rrset.CollectionRequest{reqA, reqB} {
		if _, buildErr := idx.Collection(req); buildErr != nil {
			t.Fatal(buildErr)
		}
	}
	if n, pubErr := idx.PublishGraph(st, "snap#1"); pubErr != nil || n != 2 {
		t.Fatalf("publish = %d, %v; want 2, nil", n, pubErr)
	}

	// The next publisher holds only A (B was evicted): B's object must go
	// with it, not sit in the store forever.
	onlyA := server.NewIndex(0)
	if _, buildErr := onlyA.Collection(reqA); buildErr != nil {
		t.Fatal(buildErr)
	}
	if n, pubErr := onlyA.PublishGraph(st, "snap#1"); pubErr != nil || n != 1 {
		t.Fatalf("republish = %d, %v; want 1, nil", n, pubErr)
	}
	if left := rrsFiles(t, publishedDir(st, "snap#1")); len(left) != 1 {
		t.Fatalf("republish left %d entry objects, want 1: %v", len(left), left)
	}
	fresh := server.NewIndex(0)
	if adopted, adoptErr := fresh.AdoptGraph(st, "snap#1", g); adoptErr != nil || adopted != 1 {
		t.Fatalf("adopt = %d, %v; want 1, nil", adopted, adoptErr)
	}
}

// failingStore fails its n-th Put (counting from 1) and passes every other
// call through to the wrapped store.
type failingStore struct {
	server.SnapshotStore
	n, puts int
}

var errInjectedPut = errors.New("injected Put failure")

func (s *failingStore) Put(name string, fill func(io.Writer) error) error {
	s.puts++
	if s.puts == s.n {
		return errInjectedPut
	}
	return s.SnapshotStore.Put(name, fill)
}

// TestPublishGraphFailedPutKeepsOldOrNewSet: a republish that adds entry C
// and evicts B may fail at any Put, yet an adopter must then restore
// exactly the previously published set {A, B}, or {A, C} when the publish
// succeeded, never a mix. SaveSnapshot runs the same writer.
func TestPublishGraphFailedPutKeepsOldOrNewSet(t *testing.T) {
	g := snapGraph(t)
	reqs := []rrset.CollectionRequest{snapReq(g, 200), snapReq(g, 300), snapReq(g, 400)} // A, B, C
	oldSet, newSet := []bool{true, true, false}, []bool{true, false, true}

	// before holds A and B; after held them too until C evicted B under a
	// budget of exactly A+C.
	before := server.NewIndex(0)
	for _, req := range reqs[:2] {
		if _, err := before.Collection(req); err != nil {
			t.Fatal(err)
		}
	}
	sizes := server.NewIndex(0)
	var budget int64
	for _, req := range []rrset.CollectionRequest{reqs[0], reqs[2]} {
		col, err := sizes.Collection(req)
		if err != nil {
			t.Fatal(err)
		}
		budget += col.Bytes()
	}
	after := server.NewIndex(budget)
	for _, req := range []rrset.CollectionRequest{reqs[1], reqs[0], reqs[2]} {
		if _, err := after.Collection(req); err != nil {
			t.Fatal(err)
		}
	}
	if st := after.Stats(); st.Evictions != 1 || st.ResidentCollections != 2 {
		t.Fatalf("after: %d evictions, %d resident; want B evicted", st.Evictions, st.ResidentCollections)
	}

	// adoptedSet reports which of reqs a fresh adopter of st serves warm.
	adoptedSet := func(st server.SnapshotStore) []bool {
		x := server.NewIndex(0)
		if _, err := x.AdoptGraph(st, "snap#1", g); err != nil {
			t.Fatal(err)
		}
		if rejects := x.Stats().RestoreRejects; rejects != 0 {
			t.Fatalf("adopter counted %d rejects", rejects)
		}
		warm := make([]bool, len(reqs))
		for i, req := range reqs {
			hits := x.Stats().Hits
			if _, err := x.Collection(req); err != nil {
				t.Fatal(err)
			}
			warm[i] = x.Stats().Hits > hits
		}
		return warm
	}

	for n := 1; n <= 10; n++ {
		st, err := server.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, pubErr := before.PublishGraph(st, "snap#1"); pubErr != nil {
			t.Fatal(pubErr)
		}
		faulty := &failingStore{SnapshotStore: st, n: n}
		_, pubErr := after.PublishGraph(faulty, "snap#1")
		got := adoptedSet(st)
		if pubErr != nil {
			if !errors.Is(pubErr, errInjectedPut) {
				t.Fatalf("Put %d: publish error %v, want the injected one", n, pubErr)
			}
			if !reflect.DeepEqual(got, oldSet) {
				t.Fatalf("Put %d failed: adopter serves %v, want the old set %v", n, got, oldSet)
			}
			// The next publish recovers: the failure left nothing behind
			// that a clean republish cannot supersede.
			if _, err := after.PublishGraph(st, "snap#1"); err != nil {
				t.Fatal(err)
			}
			if healed := adoptedSet(st); !reflect.DeepEqual(healed, newSet) {
				t.Fatalf("Put %d failed, then a clean republish: adopter serves %v, want %v", n, healed, newSet)
			}
			continue
		}
		if faulty.puts >= n {
			t.Fatalf("publish succeeded although its Put %d failed", n)
		}
		if !reflect.DeepEqual(got, newSet) {
			t.Fatalf("publish succeeded: adopter serves %v, want the new set %v", got, newSet)
		}
		return
	}
	t.Fatal("republish still failing after 10 injected Put failures")
}
