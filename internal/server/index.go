package server

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"comic/internal/graph"
	"comic/internal/rrset"
)

// Index is a concurrency-safe cache of RR-set collections, the core of the
// query-serving layer. Collections are keyed by everything that determines
// their content (graph, generator kind, GAP, opposite seeds, k, TIM budget,
// master seed — see rrset.CollectionRequest.Key), so a cached collection is
// byte-identical to what a fresh solve would generate and caching never
// changes query results, only their latency.
//
// Three mechanisms bound and deduplicate the work:
//
//   - hits return the resident collection without any generation;
//   - concurrent identical misses are collapsed singleflight-style — one
//     goroutine builds, the rest wait on the same result;
//   - resident collections are bounded by a byte budget with
//     least-recently-used eviction. Collections are arena-backed and
//     report their exact resident size (rrset.Collection.Bytes), so the
//     budget is a real bound, not an estimate.
//
// Beyond collections, the index memoizes one CELF seed ordering
// (rrset.SeedOrder) per resident collection: the full greedy order up to
// MaxOrderK, built on the first selection and answering every later k ≤
// MaxOrderK as an O(k) slice. It implements rrset.SeedSelector, so solvers
// that route selection through rrset.ObtainSeeds hit the memo
// transparently; results are byte-identical to a fresh SelectSeeds (CELF is
// prefix-stable), only the latency changes. Orders are byte-accounted
// against the same budget as their collections and evicted with them.
//
// An Index implements rrset.CollectionProvider and can be plugged into any
// solver via solver.Config.Collections (or comic.Options.Index).
type Index struct {
	maxBytes  int64
	maxOrderK int
	sem       chan struct{} // non-nil: bounds concurrent builds (SetBuildLimit)

	// snapMu serializes snapshot I/O (SaveSnapshot, LoadSnapshot,
	// PublishGraph, AdoptGraph, and the object deletions of DropGraph and
	// RepairGraph). It is never held while acquiring mu's critical
	// sections' callees, and mu is never held while acquiring snapMu —
	// lock order is snapMu before mu.
	snapMu sync.Mutex

	mu          sync.Mutex
	bytes       int64
	orderBytes  int64                    // resident seed-order bytes, ⊆ bytes
	entries     map[string]*list.Element // key -> element whose Value is *indexEntry
	lru         *list.List               // front = most recently used
	inflight    map[string]*flight
	orderFlight map[string]*orderFlight
	snapStore   SnapshotStore // last SaveSnapshot/LoadSnapshot directory; nil = none
	stats       IndexStats
}

// indexEntry is one resident collection. It retains the graph the
// collection was drawn on: keys may embed the graph's pointer identity
// (empty GraphID), so the graph must stay reachable — and its address
// unrecyclable — for as long as the entry is resident.
type indexEntry struct {
	key     string
	graphID string // the request's GraphID; "" = keyed by graph pointer identity
	col     *rrset.Collection
	graph   *graph.Graph
	bytes   int64
	// order is the memoized seed ordering over col, nil until the first
	// selection (or a snapshot restore) computes it; orderBytes is its
	// exact footprint, included in Index.bytes while attached.
	order      *rrset.SeedOrder
	orderBytes int64
	// req is the request that built (or restored, via the snapshot
	// manifest's request record) the collection, with Graph/GraphID still
	// pointing at the generation it was drawn on. RepairGraph re-issues it
	// against the patched graph; nil means the entry cannot be repaired
	// (pre-upgrade snapshot) and is dropped on PATCH instead.
	req *rrset.CollectionRequest
}

// flight is one in-progress build that concurrent identical requests wait
// on. It carries the builder's graph so waiters get the same GraphID-reuse
// guard as the resident-entry hit path.
type flight struct {
	done  chan struct{}
	graph *graph.Graph
	col   *rrset.Collection
	err   error
}

// orderFlight is one in-progress seed-order build. Concurrent warm solves
// over the same collection wait on it instead of each running CELF.
type orderFlight struct {
	done  chan struct{}
	order *rrset.SeedOrder
}

// IndexStats is a point-in-time snapshot of cache behavior, served by
// /v1/stats.
type IndexStats struct {
	// Hits counts requests answered from a resident collection.
	Hits int64 `json:"hits"`
	// Misses counts requests that built a new collection.
	Misses int64 `json:"misses"`
	// DedupWaits counts requests that piggybacked on another request's
	// in-flight build instead of building their own copy.
	DedupWaits int64 `json:"dedupWaits"`
	// Evictions counts collections dropped to stay under the byte budget.
	Evictions int64 `json:"evictions"`
	// Drops counts collections removed because their graph was deleted
	// from the registry (DropGraph), as opposed to budget evictions.
	Drops int64 `json:"drops"`
	// Snapshots counts successful SaveSnapshot runs; SnapshotErrors counts
	// failed ones (the periodic snapshot loop surfaces failures here).
	Snapshots      int64 `json:"snapshots"`
	SnapshotErrors int64 `json:"snapshotErrors"`
	// Restores counts collections rehydrated by LoadSnapshot or
	// AdoptGraph; RestoreRejects counts what they refused — a torn,
	// wrong-version or out-of-scope manifest, or an entry that is corrupt,
	// truncated, of the wrong format version, keyed to an unknown or
	// mismatched graph, or beyond the byte budget. A rejected entry is
	// skipped, never served.
	Restores       int64 `json:"restores"`
	RestoreRejects int64 `json:"restoreRejects"`
	// OrderHits counts selections answered by a memoized seed ordering
	// (including waits on another request's in-progress ordering build);
	// OrderMisses counts selections that had to build one. Selections with
	// k above MaxOrderK bypass the memo and count in neither.
	OrderHits   int64 `json:"orderHits"`
	OrderMisses int64 `json:"orderMisses"`
	// OrderBytes is the resident memory of memoized seed orderings, a
	// subset of ResidentBytes.
	OrderBytes int64 `json:"orderBytes"`
	// PostingsBytes is the resident memory of the postings (the per-set
	// examination index repair reads), a subset of ResidentBytes. Builds
	// record none: only collections a PATCH repaired, or restored with a
	// postings section, hold them.
	PostingsBytes int64 `json:"postingsBytes"`
	// Repairs counts collections migrated in place by RepairGraph after a
	// graph PATCH; RepairedSets counts the RR sets those repairs actually
	// regenerated (dirty + top-up — the work a full rebuild would have
	// multiplied by θ/regenerated). RepairFallbacks counts collections a
	// PATCH dropped instead — no retained request, a failed postings
	// derivation, dirtiness above the threshold, or a failed repair —
	// leaving the next query to rebuild.
	Repairs         int64 `json:"repairs"`
	RepairedSets    int64 `json:"repairedSets"`
	RepairFallbacks int64 `json:"repairFallbacks"`
	// PostingsDerived counts collections whose postings a PATCH derived
	// before repairing them: a collection without postings is rebuilt on
	// its old generation with recording on.
	PostingsDerived int64 `json:"postingsDerived"`
	// RepairTime is the cumulative wall time RepairGraph spent repairing.
	RepairTime time.Duration `json:"repairTimeNs"`
	// ResidentCollections and ResidentBytes describe current occupancy.
	ResidentCollections int   `json:"residentCollections"`
	ResidentBytes       int64 `json:"residentBytes"`
	// MaxBytes is the configured budget (0 = unbounded).
	MaxBytes int64 `json:"maxBytes"`
	// BuildTime is the cumulative wall time spent generating collections
	// on misses.
	BuildTime time.Duration `json:"buildTimeNs"`
}

// DefaultMaxOrderK is the default depth of memoized seed orderings: large
// enough to cover every realistic k (the server's own MaxK default is 500)
// at a per-collection cost of ~12 bytes per position.
const DefaultMaxOrderK = 512

// NewIndex returns an empty index bounded to maxBytes of resident RR-set
// data (exact arena accounting). maxBytes <= 0 means unbounded.
func NewIndex(maxBytes int64) *Index {
	return &Index{
		maxBytes:    maxBytes,
		maxOrderK:   DefaultMaxOrderK,
		entries:     make(map[string]*list.Element),
		lru:         list.New(),
		inflight:    make(map[string]*flight),
		orderFlight: make(map[string]*orderFlight),
	}
}

// SetMaxOrderK sets how many positions of the CELF ordering are memoized
// per collection; selections with k beyond it fall back to a fresh CELF
// run. k <= 0 disables seed-order memoization entirely. Like
// SetBuildLimit, call before the index is shared across goroutines.
func (x *Index) SetMaxOrderK(k int) {
	if k < 0 {
		k = 0
	}
	x.maxOrderK = k
}

// Collection returns the collection for req, building it at most once per
// distinct key no matter how many goroutines ask concurrently. Errors are
// not cached; a later identical request retries the build.
//
// A build records postings only if req asks for them. The index never
// forces them: a graph that is never patched never pays for them, and
// RepairGraph derives them at a collection's first PATCH.
func (x *Index) Collection(req rrset.CollectionRequest) (*rrset.Collection, error) {
	key := req.Key()

	x.mu.Lock()
	if el, ok := x.entries[key]; ok {
		e := el.Value.(*indexEntry)
		if err := graphReuseError(e.graph, req); err != nil {
			x.mu.Unlock()
			return nil, err
		}
		x.lru.MoveToFront(el)
		x.stats.Hits++
		col := e.col
		x.mu.Unlock()
		return col, nil
	}
	if f, ok := x.inflight[key]; ok {
		// A waiter piggybacking on another request's build needs the same
		// misuse guard as a hit: the in-flight collection is being drawn on
		// the builder's graph, which must be the waiter's graph too.
		if err := graphReuseError(f.graph, req); err != nil {
			x.mu.Unlock()
			return nil, err
		}
		x.stats.DedupWaits++
		x.mu.Unlock()
		<-f.done
		return f.col, f.err
	}
	f := &flight{done: make(chan struct{}), graph: req.Graph}
	x.inflight[key] = f
	x.stats.Misses++
	x.mu.Unlock()

	if sem := x.sem; sem != nil {
		sem <- struct{}{}
		defer func() { <-sem }()
	}
	t0 := time.Now()
	col, err := buildSafely(req)
	f.col, f.err = col, err
	close(f.done)

	x.mu.Lock()
	delete(x.inflight, key)
	x.stats.BuildTime += time.Since(t0)
	if err == nil {
		x.insertLocked(key, col, &req)
	}
	x.mu.Unlock()
	return col, err
}

// SelectSeeds resolves req's collection and selects k seeds over a graph of
// n nodes, answering from the memoized CELF ordering when one is resident
// and building (at most once per collection, singleflight) when not. It
// implements rrset.SeedSelector; solvers reach it through
// rrset.ObtainSeeds. Results are byte-identical to Collection followed by
// rrset.SelectSeeds — CELF orderings are prefix-stable, and any order that
// does not exactly match the collection is discarded, never served.
//
// The returned Stats' SelectDuration covers the whole selection path: the
// O(k) slice on an order hit, or the full ordering build on a miss.
func (x *Index) SelectSeeds(req rrset.CollectionRequest, n, k int) ([]int32, *rrset.Stats, error) {
	col, err := x.Collection(req)
	if err != nil {
		return nil, nil, err
	}
	kk := k
	if kk > n {
		kk = n
	}
	if kk < 0 || kk > x.maxOrderK {
		// Beyond the memoized depth (or memoization disabled): select
		// fresh. No order counters move — this path never consulted the
		// memo.
		seeds, st := rrset.SelectSeeds(col, n, k)
		return seeds, st, nil
	}
	t0 := time.Now()
	o := x.seedOrder(req.Key(), col, n)
	if seeds, st, ok := rrset.SelectFromOrder(col, o, n, k); ok {
		st.SelectDuration = time.Since(t0)
		return seeds, st, nil
	}
	// The order did not apply (build panicked, or a concurrent builder's
	// collection was evicted and rebuilt under our feet). Correctness over
	// latency: select fresh.
	seeds, st := rrset.SelectSeeds(col, n, k)
	return seeds, st, nil
}

// seedOrder returns the memoized ordering for the collection cached under
// key, building it singleflight when absent. The result may be nil (build
// panic) or may not match col (rebuilt entry); the caller validates via
// SelectFromOrder.
func (x *Index) seedOrder(key string, col *rrset.Collection, n int) *rrset.SeedOrder {
	maxK := x.maxOrderK
	if maxK > n {
		maxK = n
	}
	x.mu.Lock()
	if el, ok := x.entries[key]; ok {
		e := el.Value.(*indexEntry)
		if e.col == col && e.order != nil && e.order.N() == n && e.order.MaxK() >= maxK {
			x.stats.OrderHits++
			o := e.order
			x.mu.Unlock()
			return o
		}
	}
	if f, ok := x.orderFlight[key]; ok {
		// Piggybacking on another request's ordering build is a hit: the
		// CELF work runs once, everyone slices it.
		x.stats.OrderHits++
		x.mu.Unlock()
		<-f.done
		return f.order
	}
	f := &orderFlight{done: make(chan struct{})}
	x.orderFlight[key] = f
	x.stats.OrderMisses++
	x.mu.Unlock()

	o := buildOrderSafely(col, n, maxK)
	f.order = o
	close(f.done)

	x.mu.Lock()
	delete(x.orderFlight, key)
	if o != nil {
		x.attachOrderLocked(key, col, o)
	}
	x.mu.Unlock()
	return o
}

// attachOrderLocked memoizes o on the resident entry for key, provided the
// entry still holds the exact collection the order was computed over — the
// entry may have been evicted and rebuilt while CELF ran, and an order must
// never outlive its collection. Replaces a shallower order (a snapshot
// restored under a smaller MaxOrderK), keeps a deeper one.
func (x *Index) attachOrderLocked(key string, col *rrset.Collection, o *rrset.SeedOrder) {
	el, ok := x.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*indexEntry)
	if e.col != col {
		return
	}
	if e.order != nil && e.order.MaxK() >= o.MaxK() {
		return
	}
	x.bytes -= e.orderBytes
	x.orderBytes -= e.orderBytes
	e.order = o
	e.orderBytes = o.Bytes()
	x.bytes += e.orderBytes
	x.orderBytes += e.orderBytes
	x.evictOverBudgetLocked()
}

// buildOrderSafely converts a panicking ordering build into a nil order so
// the flight always resolves (see buildSafely); the caller then falls back
// to a fresh selection, which surfaces the defect on its own terms.
func buildOrderSafely(col *rrset.Collection, n, maxK int) (o *rrset.SeedOrder) {
	defer func() { recover() }()
	return rrset.BuildSeedOrder(col, n, maxK)
}

// graphReuseError reports whether serving a collection drawn on `cached`
// for req would cross graphs. Sharing across Graph instances is legitimate
// (same logical graph reloaded under one GraphID), but a GraphID reused for
// a *different* graph would silently serve wrong RR sets. Same logical
// graph implies same size; different size proves misuse, so fail loudly.
func graphReuseError(cached *graph.Graph, req rrset.CollectionRequest) error {
	if cached == req.Graph {
		return nil
	}
	if cached == nil || req.Graph == nil {
		return fmt.Errorf("server: GraphID %q reused across a nil and a non-nil graph", req.GraphID)
	}
	if cached.N() != req.Graph.N() || cached.M() != req.Graph.M() {
		return fmt.Errorf("server: GraphID %q reused for a different graph (%d nodes/%d edges cached vs %d/%d requested)",
			req.GraphID, cached.N(), cached.M(), req.Graph.N(), req.Graph.M())
	}
	return nil
}

// ErrBuildPanic wraps a panic recovered from an RR-set collection build.
// Handlers map it to 500: it marks a server-side defect, not a bad request.
var ErrBuildPanic = errors.New("server: RR-set collection build panicked")

// buildSafely converts a panicking build into an error. Without this a
// panic would unwind past the close(f.done) above, leaving a poisoned
// flight registered forever: every later identical request would block on
// its done channel.
func buildSafely(req rrset.CollectionRequest) (col *rrset.Collection, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrBuildPanic, r)
		}
	}()
	return req.Build()
}

// insertLocked adds a built collection and evicts from the cold end until
// the budget holds again. The newest collection is never evicted, so a
// single collection larger than the whole budget still serves its own
// request (and becomes the next eviction victim). The request is retained
// on the entry so RepairGraph can re-issue it after a graph PATCH.
func (x *Index) insertLocked(key string, col *rrset.Collection, req *rrset.CollectionRequest) {
	if _, ok := x.entries[key]; ok {
		return // a racing build of the same key already landed
	}
	e := &indexEntry{key: key, graphID: req.GraphID, col: col, graph: req.Graph, bytes: col.Bytes(), req: req}
	x.entries[key] = x.lru.PushFront(e)
	x.bytes += e.bytes
	x.evictOverBudgetLocked()
}

// evictOverBudgetLocked evicts from the cold end until the budget holds
// again, releasing each victim's collection and any attached seed order.
func (x *Index) evictOverBudgetLocked() {
	for x.maxBytes > 0 && x.bytes > x.maxBytes && x.lru.Len() > 1 {
		back := x.lru.Back()
		victim := back.Value.(*indexEntry)
		x.lru.Remove(back)
		delete(x.entries, victim.key)
		x.bytes -= victim.bytes + victim.orderBytes
		x.orderBytes -= victim.orderBytes
		x.stats.Evictions++
	}
}

// DropGraph removes every resident collection drawn on g and returns how
// many were dropped. The graph registry calls it when a graph is deleted —
// once no solve holds a reference to the graph — so a deleted graph's
// cache entries stop pinning its memory. Matching is by graph identity:
// collections record the *graph.Graph they were generated on regardless of
// how their key was formed.
//
// When the index has a snapshot directory (SaveSnapshot/LoadSnapshot has
// run), the dropped entries' on-disk snapshot files are deleted too: a
// deleted graph's RR sets must not survive on disk and reappear after a
// restart. Entry files for collections of g that were budget-evicted
// before the drop are pruned by the next SaveSnapshot instead — and even
// unpruned, a restart cannot restore them, because the registry deletes
// the graph's persisted identity (its cache ID) along with the graph.
//
// Safe to call concurrently with Collection. An identical-key request
// in flight while DropGraph runs may still insert its result afterwards;
// the registry prevents that by dropping only after the last in-flight
// solve on the graph has released its reference (inserts happen inside a
// solve, before the release).
func (x *Index) DropGraph(g *graph.Graph) int {
	x.mu.Lock()
	dropped := 0
	store := x.snapStore
	var dead []string
	//comic:unordered every matching entry is dropped and each file removed independently; order is immaterial
	for key, el := range x.entries {
		e := el.Value.(*indexEntry)
		if e.graph == g {
			x.lru.Remove(el)
			delete(x.entries, key)
			x.bytes -= e.bytes + e.orderBytes
			x.orderBytes -= e.orderBytes
			dropped++
			if store != nil && e.graphID != "" {
				dead = append(dead, key)
			}
		}
	}
	x.stats.Drops += int64(dropped)
	x.mu.Unlock()
	x.deleteSnapshotObjects(store, dead)
	return dropped
}

// deleteSnapshotObjects deletes the entry objects of the dead cache keys
// from store, the local snapshot store the index had when they died.
func (x *Index) deleteSnapshotObjects(store SnapshotStore, keys []string) {
	if len(keys) == 0 {
		return
	}
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	for _, key := range keys {
		//comic:allow errlost best-effort; LoadSnapshot tolerates strays
		store.Delete(snapshotFileName(key))
	}
}

// RepairSummary reports what one RepairGraph migration did, surfaced in
// the PATCH /v1/graphs/{name}/edges response.
type RepairSummary struct {
	// Collections counts the resident collections drawn on the patched
	// graph's previous generation; Repaired of them were migrated in
	// place, Fallbacks were dropped (the next query rebuilds cold).
	Collections int `json:"collections"`
	Repaired    int `json:"repaired"`
	Fallbacks   int `json:"fallbacks"`
	// ReusedSets counts RR sets carried over verbatim across all repairs;
	// RepairedSets counts the ones regenerated (dirty + top-up).
	ReusedSets   int `json:"reusedSets"`
	RepairedSets int `json:"repairedSets"`
}

// RepairGraph migrates every resident collection drawn on old onto the
// patched graph: each is repaired incrementally (rrset.Repair) — bitwise
// identical to a cold rebuild on the patched graph, but regenerating only
// the RR sets the update batch dirtied — and re-keyed under newID, the
// patched generation's GraphID. Repaired collections record postings, so
// later patches repair them directly.
//
// Builds record no postings (see Collection), so a collection's first
// PATCH derives them: it rebuilds the retained request on old with
// RecordPostings on. That rebuild draws from the same per-set streams, so
// it holds the same sets, and repair proceeds from it. Collections that
// cannot be repaired (no retained request, a failed derivation,
// dirtiness above maxDirtyFrac, or a failed repair) are dropped; the next
// query rebuilds them cold.
//
// The caller (the PATCH path) must keep the old generation referenced in
// the registry while this runs, so a concurrent delete cannot drop
// entries out from under the repair loop. Old-generation entries inserted
// concurrently by in-flight solves are not migrated; they drain when the
// old version's last reference is released.
func (x *Index) RepairGraph(old, patched *graph.Graph, newID string, delta *graph.Delta, maxDirtyFrac float64) RepairSummary {
	x.mu.Lock()
	type cand struct {
		key string
		e   *indexEntry
	}
	var cands []cand
	//comic:unordered candidates are sorted by key right below
	for key, el := range x.entries {
		e := el.Value.(*indexEntry)
		if e.graph == old {
			cands = append(cands, cand{key, e})
		}
	}
	x.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].key < cands[j].key })

	// Repair outside the lock — this is θ-scaled work. Collections are
	// immutable, so concurrent hits on the old entries are safe.
	type migration struct {
		oldKey string
		oldE   *indexEntry
		req    *rrset.CollectionRequest
		col    *rrset.Collection
	}
	var sum RepairSummary
	sum.Collections = len(cands)
	var migs []migration
	var drops []cand
	var derived int64
	t0 := time.Now()
	for _, c := range cands {
		if c.e.req == nil {
			drops = append(drops, c)
			sum.Fallbacks++
			continue
		}
		req := *c.e.req
		req.Opts.RecordPostings = true
		from := c.e.col
		if !from.HasPostings() {
			var err error
			if from, err = buildSafely(req); err != nil {
				drops = append(drops, c)
				sum.Fallbacks++
				continue
			}
			derived++
		}
		req.Graph = patched
		req.GraphID = newID
		col, rst, err := repairSafely(from, req, delta, maxDirtyFrac)
		if err != nil || col == nil {
			drops = append(drops, c)
			sum.Fallbacks++
			continue
		}
		sum.Repaired++
		sum.ReusedSets += rst.Reused
		sum.RepairedSets += rst.Regenerated + rst.TopUp
		migs = append(migs, migration{oldKey: c.key, oldE: c.e, req: &req, col: col})
	}
	repairTime := time.Since(t0)

	x.mu.Lock()
	// removeIfCurrent unlinks the entry under key provided it is still the
	// exact entry the repair loop saw — it may have been evicted (gone) or
	// evicted-and-rebuilt (a different entry) meanwhile.
	store := x.snapStore
	var dead []string
	removeIfCurrent := func(key string, e *indexEntry) {
		el, ok := x.entries[key]
		if !ok || el.Value.(*indexEntry) != e {
			return
		}
		x.lru.Remove(el)
		delete(x.entries, key)
		x.bytes -= e.bytes + e.orderBytes
		x.orderBytes -= e.orderBytes
		if store != nil && e.graphID != "" {
			dead = append(dead, key)
		}
	}
	for _, d := range drops {
		removeIfCurrent(d.key, d.e)
	}
	for _, m := range migs {
		removeIfCurrent(m.oldKey, m.oldE)
		// The memoized seed ordering belonged to the old collection; the
		// repaired one starts without and rebuilds it on first selection.
		x.insertLocked(m.req.Key(), m.col, m.req)
	}
	x.stats.Repairs += int64(sum.Repaired)
	x.stats.RepairedSets += int64(sum.RepairedSets)
	x.stats.RepairFallbacks += int64(sum.Fallbacks)
	x.stats.PostingsDerived += derived
	x.stats.RepairTime += repairTime
	x.mu.Unlock()

	// The dead generation's snapshot entry files must not linger: a
	// restart cannot restore them (their GraphID is gone), but pruning now
	// keeps the state directory from accumulating one stale file per
	// patched collection until the next SaveSnapshot.
	x.deleteSnapshotObjects(store, dead)
	return sum
}

// repairSafely converts a panicking repair into an error so a defective
// collection falls back to a drop-and-rebuild instead of killing the
// PATCH request.
func repairSafely(old *rrset.Collection, req rrset.CollectionRequest, delta *graph.Delta, maxDirtyFrac float64) (col *rrset.Collection, rst *rrset.RepairStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			col, rst, err = nil, nil, fmt.Errorf("%w: %v", ErrBuildPanic, r)
		}
	}()
	return rrset.Repair(old, req, delta, maxDirtyFrac)
}

// SetBuildLimit bounds the number of collection builds that may run
// concurrently; n <= 0 removes the bound. The byte budget only covers
// resident collections — each in-flight build can hold up to θ RR sets
// before the budget ever sees them, so distinct concurrent queries (cache
// keys include client-controlled fields) are otherwise an unbounded
// memory and CPU vector. Call before the index is shared across
// goroutines; the setting itself is not synchronized.
func (x *Index) SetBuildLimit(n int) {
	if n <= 0 {
		x.sem = nil
		return
	}
	x.sem = make(chan struct{}, n)
}

// Stats returns a snapshot of the cache counters and occupancy.
func (x *Index) Stats() IndexStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := x.stats
	st.ResidentCollections = x.lru.Len()
	st.ResidentBytes = x.bytes
	st.OrderBytes = x.orderBytes
	for el := x.lru.Front(); el != nil; el = el.Next() {
		if p := el.Value.(*indexEntry).col.PostingsIndex(); p != nil {
			st.PostingsBytes += p.Bytes()
		}
	}
	st.MaxBytes = x.maxBytes
	return st
}

// Len reports the number of resident collections.
func (x *Index) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.lru.Len()
}
