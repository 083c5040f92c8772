package server

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
	"comic/internal/rrset"
)

func testGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g := graph.PowerLaw(200, 4, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	return g
}

func testRequest(g *graph.Graph, seed uint64, theta int) rrset.CollectionRequest {
	return rrset.CollectionRequest{
		GraphID: "test",
		Graph:   g,
		// A bound-instance GAP (B indifferent to A), the form the sandwich
		// solver hands to RR-SIM(+).
		Kind:     rrset.KindSIMPlus,
		GAP:      core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.4},
		Opposite: []int32{1, 2},
		K:        5,
		Opts:     rrset.Options{FixedTheta: theta},
		Seed:     seed,
	}
}

func TestIndexHitMiss(t *testing.T) {
	g := testGraph(t)
	idx := NewIndex(0)
	req := testRequest(g, 7, 200)

	c1, err := idx.Collection(req)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := idx.Collection(req)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second identical request did not return the cached collection")
	}
	st := idx.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit", st)
	}
	if st.ResidentCollections != 1 || st.ResidentBytes != c1.Bytes() {
		t.Fatalf("occupancy = %d collections / %d bytes, want 1 / %d",
			st.ResidentCollections, st.ResidentBytes, c1.Bytes())
	}
}

func TestIndexKeyDiscriminates(t *testing.T) {
	g := testGraph(t)
	base := testRequest(g, 7, 200)

	// Every field that affects the generated sets must produce a new key.
	variants := []rrset.CollectionRequest{base, base, base, base, base, base}
	variants[1].Seed = 8
	variants[2].Kind = rrset.KindSIM
	variants[3].GAP.QAB = 0.85
	variants[4].Opposite = []int32{1, 3}
	variants[5].Opts.FixedTheta = 201
	keys := map[string]bool{}
	for _, v := range variants {
		keys[v.Key()] = true
	}
	if len(keys) != len(variants) {
		t.Fatalf("got %d distinct keys for %d distinct requests", len(keys), len(variants))
	}

	// Workers must NOT affect the key: it does not change the sets.
	w := base
	w.Opts.Workers = 3
	if w.Key() != base.Key() {
		t.Fatal("Workers changed the cache key")
	}

	// With FixedTheta set, generation never consults k, Epsilon, Ell or
	// MaxTheta (they only drive θ via KPT and Eq. 3), so none of them may
	// key the cache: a k- or epsilon-sweep shares one collection...
	kv := base
	kv.K = base.K + 1
	kv.Opts.Epsilon = 0.3
	kv.Opts.Ell = 2
	kv.Opts.MaxTheta = 12345
	if kv.Key() != base.Key() {
		t.Fatal("k/eps/ell/maxTheta changed the cache key despite FixedTheta being set")
	}
	// ...but with θ derived (k drives KPT and Eq. 3), k must key it.
	d1, d2 := base, base
	d1.Opts.FixedTheta = 0
	d2.Opts.FixedTheta = 0
	d2.K = base.K + 1
	if d1.Key() == d2.Key() {
		t.Fatal("K did not change the cache key with derived theta")
	}

	// Any FixedTheta <= 0 means "derive": the key must not fragment on
	// the exact non-positive value.
	neg := d1
	neg.Opts.FixedTheta = -7
	if neg.Key() != d1.Key() {
		t.Fatal("FixedTheta -7 and 0 produced different keys for the same build")
	}

	idx := NewIndex(0)
	for _, v := range variants {
		if _, err := idx.Collection(v); err != nil {
			t.Fatal(err)
		}
	}
	if st := idx.Stats(); st.Misses != int64(len(variants)) {
		t.Fatalf("misses = %d, want %d", st.Misses, len(variants))
	}
}

func TestIndexEmptyGraphIDKeysByInstance(t *testing.T) {
	// With no GraphID, pointer identity must keep two different graphs'
	// otherwise-identical requests apart — a shared index must never serve
	// one graph's RR sets for another.
	g1 := testGraph(t)
	g2 := graph.PowerLaw(300, 4, 2.16, true, rng.New(2))
	graph.AssignWeightedCascade(g2)

	r1 := testRequest(g1, 7, 100)
	r2 := testRequest(g2, 7, 100)
	r1.GraphID, r2.GraphID = "", ""
	if r1.Key() == r2.Key() {
		t.Fatal("requests on different graphs with empty GraphID share a key")
	}

	idx := NewIndex(0)
	if _, err := idx.Collection(r1); err != nil {
		t.Fatal(err)
	}
	c2, err := idx.Collection(r2)
	if err != nil {
		t.Fatal(err)
	}
	// Selection returns min(k, n) seeds for a coverage index over n nodes,
	// so asking for more seeds than either graph has reads the node domain
	// the served collection's postings were built over.
	if seeds, _ := rrset.SelectSeeds(c2, g1.N()+g2.N()); len(seeds) != g2.N() {
		t.Fatalf("collection served for g2 indexes %d nodes, want g2's %d (g1 has %d)",
			len(seeds), g2.N(), g1.N())
	}
	if st := idx.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 hits", st)
	}
}

func TestIndexDetectsGraphIDMisuse(t *testing.T) {
	// One GraphID, two different-size graphs: the hit path must fail
	// loudly instead of serving the first graph's RR sets for the second.
	g1 := testGraph(t)
	g2 := graph.PowerLaw(300, 4, 2.16, true, rng.New(2))
	graph.AssignWeightedCascade(g2)

	idx := NewIndex(0)
	r1 := testRequest(g1, 7, 100)
	if _, err := idx.Collection(r1); err != nil {
		t.Fatal(err)
	}
	r2 := testRequest(g2, 7, 100) // same GraphID "test", same params
	if _, err := idx.Collection(r2); err == nil {
		t.Fatal("want an error for a GraphID reused across different graphs, got a silent hit")
	}
}

func TestIndexDedupWaitDetectsGraphIDMisuse(t *testing.T) {
	// A waiter piggybacking on an in-flight build must get the same
	// GraphID-reuse guard as a cache hit: if the build in progress is for a
	// *different* graph under the same GraphID, the waiter must get an
	// error, not that graph's collection. Register the flight by hand so
	// the in-flight window is deterministic rather than a race against a
	// real build.
	g1 := testGraph(t)
	g2 := graph.PowerLaw(300, 4, 2.16, true, rng.New(2))
	graph.AssignWeightedCascade(g2)

	idx := NewIndex(0)
	r2 := testRequest(g2, 7, 100) // same GraphID "test", same parameters
	idx.mu.Lock()
	idx.inflight[r2.Key()] = &flight{done: make(chan struct{}), graph: g1}
	idx.mu.Unlock()

	// The flight's done channel never closes: the call below must error on
	// the mismatch check before ever blocking on it.
	errc := make(chan error, 1)
	go func() {
		_, err := idx.Collection(r2)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("want an error for a dedup wait on a different graph's build, got its collection")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter blocked on the mismatched flight instead of failing fast")
	}
	if st := idx.Stats(); st.DedupWaits != 0 {
		t.Fatalf("dedupWaits = %d, want 0: the mismatched request must not count as a wait", st.DedupWaits)
	}

	// Same graph instance (or a same-size reload) still piggybacks
	// normally: r1 shares r2's key (same GraphID and parameters), so the
	// registered flight serves it once resolved.
	r1 := testRequest(g1, 7, 100)
	idx.mu.Lock()
	f := idx.inflight[r1.Key()]
	idx.mu.Unlock()
	f.col = &rrset.Collection{}
	close(f.done)
	col, err := idx.Collection(r1)
	if err != nil || col != f.col {
		t.Fatalf("matching-graph waiter got (%v, %v), want the flight's collection", col, err)
	}
	if st := idx.Stats(); st.DedupWaits != 1 {
		t.Fatalf("dedupWaits = %d, want 1", st.DedupWaits)
	}
}

func TestIndexRejectsOutOfRangeOpposite(t *testing.T) {
	// An out-of-range opposite seed must be a build error, never a panic
	// on a generation worker (which would kill the whole process).
	g := testGraph(t)
	req := testRequest(g, 7, 100)
	req.Opposite = []int32{int32(g.N()) + 50}

	idx := NewIndex(0)
	if _, err := idx.Collection(req); err == nil {
		t.Fatal("want an error for an out-of-range opposite seed, got nil")
	}
	if st := idx.Stats(); st.ResidentCollections != 0 {
		t.Fatalf("resident = %d, want 0: failed builds must not be cached", st.ResidentCollections)
	}
}

func TestIndexBuildPanicDoesNotPoisonKey(t *testing.T) {
	// A build that panics on the calling goroutine (here: nil graph) must
	// surface as an error — to this request and to any later identical one
	// — rather than leaving a never-closed flight that would block them
	// forever.
	req := testRequest(nil, 7, 100)

	idx := NewIndex(0)
	if _, err := idx.Collection(req); err == nil {
		t.Fatal("want an error from a panicking build, got nil")
	}
	done := make(chan error, 1)
	go func() {
		_, err := idx.Collection(req)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("want an error from the retried build, got nil")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("retried request blocked: the panicked flight poisoned the key")
	}
	if st := idx.Stats(); st.ResidentCollections != 0 {
		t.Fatalf("resident = %d, want 0: failed builds must not be cached", st.ResidentCollections)
	}
}

func TestIndexBuildLimitNoDeadlock(t *testing.T) {
	// A build limit of 1 serializes builds but must not deadlock with the
	// singleflight machinery: waiters on a queued build's key block on its
	// done channel, not on the semaphore.
	g := testGraph(t)
	idx := NewIndex(0)
	idx.SetBuildLimit(1)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		req := testRequest(g, uint64(1+i%4), 200) // 4 distinct keys, each twice
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := idx.Collection(req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := idx.Stats(); st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (one build per distinct key)", st.Misses)
	}
}

func TestIndexDeterministicContent(t *testing.T) {
	g := testGraph(t)
	req := testRequest(g, 7, 300)
	c1, err := NewIndex(0).Collection(req)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewIndex(0).Collection(req)
	if err != nil {
		t.Fatal(err)
	}
	// Everything but the phase timings must match, coverage index included.
	c1.KPTDuration, c1.GenDuration = 0, 0
	c2.KPTDuration, c2.GenDuration = 0, 0
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("identical requests built different collections")
	}
}

func TestIndexLRUEviction(t *testing.T) {
	g := testGraph(t)
	r1 := testRequest(g, 1, 200)
	r2 := testRequest(g, 2, 200)
	r3 := testRequest(g, 3, 200)

	// Measure deterministic sizes with an unbounded index, then pick a
	// budget that fits {r1,r2} and {r1,r3} but not all three.
	pre := NewIndex(0)
	c1, err1 := pre.Collection(r1)
	c2, err2 := pre.Collection(r2)
	c3, err3 := pre.Collection(r3)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	s1, s2, s3 := c1.Bytes(), c2.Bytes(), c3.Bytes()
	budget := s1 + s2
	if s1+s3 > budget {
		budget = s1 + s3
	}

	idx := NewIndex(budget)
	idx.Collection(r1)
	idx.Collection(r2)
	idx.Collection(r1) // touch r1 so r2 becomes least recently used
	idx.Collection(r3) // must evict r2
	st := idx.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d bytes over budget %d", st.ResidentBytes, budget)
	}

	hitsBefore := st.Hits
	idx.Collection(r1) // still resident
	if st = idx.Stats(); st.Hits != hitsBefore+1 {
		t.Fatal("r1 was evicted but should have been kept (recently used)")
	}
	missesBefore := st.Misses
	idx.Collection(r2) // evicted, must rebuild
	if st = idx.Stats(); st.Misses != missesBefore+1 {
		t.Fatal("r2 was still resident but should have been evicted")
	}
}

func TestIndexTinyBudgetKeepsNewest(t *testing.T) {
	// A budget smaller than any single collection still serves requests,
	// holding exactly the newest collection.
	g := testGraph(t)
	idx := NewIndex(1)
	if _, err := idx.Collection(testRequest(g, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Collection(testRequest(g, 2, 100)); err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.ResidentCollections != 1 {
		t.Fatalf("resident = %d, want 1", st.ResidentCollections)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestIndexSingleflight(t *testing.T) {
	g := testGraph(t)
	idx := NewIndex(0)
	req := testRequest(g, 7, 5000)

	const workers = 16
	start := make(chan struct{})
	cols := make([]*rrset.Collection, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, err := idx.Collection(req)
			if err != nil {
				t.Error(err)
				return
			}
			cols[i] = c
		}(i)
	}
	close(start)
	wg.Wait()

	st := idx.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1: concurrent identical queries must build once", st.Misses)
	}
	if st.Hits+st.DedupWaits != workers-1 {
		t.Fatalf("hits %d + dedupWaits %d != %d", st.Hits, st.DedupWaits, workers-1)
	}
	for i := 1; i < workers; i++ {
		if cols[i] != cols[0] {
			t.Fatal("concurrent requests returned different collection instances")
		}
	}
}

// TestIndexEvictionChurnSafety hammers two keys through a budget that
// cannot hold both, so selections race with evictions and rebuilds of the
// collections they select over. Every selection must still return the
// right seeds, and the byte accounting must balance exactly afterwards.
func TestIndexEvictionChurnSafety(t *testing.T) {
	g := testGraph(t)
	reqA := testRequest(g, 1, 300)
	reqB := testRequest(g, 2, 300)

	colA, err := reqA.Build()
	if err != nil {
		t.Fatal(err)
	}
	colB, err := reqB.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantA, _ := rrset.SelectSeeds(colA, 5)
	wantB, _ := rrset.SelectSeeds(colB, 5)

	// Budget below two collections: every alternation evicts the other key.
	idx := NewIndex(colA.Bytes() + colB.Bytes()/2)

	const workers, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req, want := reqA, wantA
				if (w+i)%2 == 0 {
					req, want = reqB, wantB
				}
				col, err := idx.Collection(req)
				if err != nil {
					t.Error(err)
					return
				}
				if seeds, _ := rrset.SelectSeeds(col, 5); !reflect.DeepEqual(seeds, want) {
					t.Errorf("worker %d iter %d: seeds %v, want %v", w, i, seeds, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The running total must equal a fresh walk of the resident entries —
	// any insert/evict/drop that double-counted or leaked would show here.
	idx.mu.Lock()
	var sumBytes int64
	for el := idx.lru.Front(); el != nil; el = el.Next() {
		sumBytes += el.Value.(*indexEntry).bytes
	}
	gotBytes := idx.bytes
	idx.mu.Unlock()
	if gotBytes != sumBytes {
		t.Fatalf("accounting drifted: bytes %d, entries sum %d", gotBytes, sumBytes)
	}
}

// TestIndexDropGraphReleasesBytes: DropGraph must release its collections'
// bytes — occupancy returns to zero.
func TestIndexDropGraphReleasesBytes(t *testing.T) {
	g := testGraph(t)
	idx := NewIndex(0)
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := idx.Collection(testRequest(g, seed, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if is := idx.Stats(); is.ResidentBytes <= 0 || is.ResidentCollections != 3 {
		t.Fatalf("precondition: %+v", is)
	}
	if dropped := idx.DropGraph(g); dropped != 3 {
		t.Fatalf("dropped %d, want 3", dropped)
	}
	is := idx.Stats()
	if is.ResidentBytes != 0 || is.ResidentCollections != 0 {
		t.Fatalf("drop leaked: %+v", is)
	}
}
