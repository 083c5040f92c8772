package server

import (
	"container/list"
	"errors"
	"fmt"
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
// An Index implements rrset.CollectionProvider and can be plugged into any
// solver via solver.Config.Collections (or comic.Options.Index).
type Index struct {
	maxBytes int64
	sem      chan struct{} // non-nil: bounds concurrent builds (SetBuildLimit)

	// snapMu serializes snapshot I/O (SaveSnapshot, LoadSnapshot,
	// PublishGraph, AdoptGraph, and the object deletions of DropGraph). It
	// is never held while acquiring mu's critical sections' callees, and
	// mu is never held while acquiring snapMu — lock order is snapMu
	// before mu.
	snapMu sync.Mutex

	mu        sync.Mutex
	bytes     int64
	entries   map[string]*list.Element // key -> element whose Value is *indexEntry
	lru       *list.List               // front = most recently used
	inflight  map[string]*flight
	snapStore SnapshotStore // last SaveSnapshot/LoadSnapshot directory; nil = none
	stats     IndexStats
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
	// from the registry or superseded by a PATCH (DropGraph), as opposed
	// to budget evictions.
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
	// ResidentCollections and ResidentBytes describe current occupancy.
	ResidentCollections int   `json:"residentCollections"`
	ResidentBytes       int64 `json:"residentBytes"`
	// MaxBytes is the configured budget (0 = unbounded).
	MaxBytes int64 `json:"maxBytes"`
	// BuildTime is the cumulative wall time spent generating collections
	// on misses.
	BuildTime time.Duration `json:"buildTimeNs"`
}

// NewIndex returns an empty index bounded to maxBytes of resident RR-set
// data (exact arena accounting). maxBytes <= 0 means unbounded.
func NewIndex(maxBytes int64) *Index {
	return &Index{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),
	}
}

// SetMaxOrderK does nothing. It set the depth of memoized CELF seed
// orderings, which fresh selection over each collection's coverage index
// replaced; the method stays so existing callers, such as the load
// benchmark's in-process replay, build unchanged.
func (x *Index) SetMaxOrderK(k int) {}

// Collection returns the collection for req, building it at most once per
// distinct key no matter how many goroutines ask concurrently. Errors are
// not cached; a later identical request retries the build.
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
		x.insertLocked(key, col, req.Graph, req.GraphID)
	}
	x.mu.Unlock()
	return col, err
}

// SelectSeeds resolves req's collection and selects k seeds from it:
// Collection followed by rrset.SelectSeeds, which is what solvers run. The
// node-count argument is unused, as a collection selects over its own
// graph's nodes; the method keeps its signature so existing callers, such
// as the load benchmark's in-process replay, build unchanged.
func (x *Index) SelectSeeds(req rrset.CollectionRequest, _, k int) ([]int32, *rrset.Stats, error) {
	col, err := x.Collection(req)
	if err != nil {
		return nil, nil, err
	}
	seeds, st := rrset.SelectSeeds(col, k)
	return seeds, st, nil
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
// request (and becomes the next eviction victim).
func (x *Index) insertLocked(key string, col *rrset.Collection, g *graph.Graph, graphID string) {
	if _, ok := x.entries[key]; ok {
		return // a racing build of the same key already landed
	}
	e := &indexEntry{key: key, graphID: graphID, col: col, graph: g, bytes: col.Bytes()}
	x.entries[key] = x.lru.PushFront(e)
	x.bytes += e.bytes
	x.evictOverBudgetLocked()
}

// evictOverBudgetLocked evicts from the cold end until the budget holds
// again.
func (x *Index) evictOverBudgetLocked() {
	for x.maxBytes > 0 && x.bytes > x.maxBytes && x.lru.Len() > 1 {
		back := x.lru.Back()
		victim := back.Value.(*indexEntry)
		x.lru.Remove(back)
		delete(x.entries, victim.key)
		x.bytes -= victim.bytes
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
			x.bytes -= e.bytes
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

// RepairSummary reports what a PATCH did to the cached collections of the
// graph's previous generation, surfaced in the PATCH
// /v1/graphs/{name}/edges response.
type RepairSummary struct {
	// Collections counts the resident collections drawn on the previous
	// generation. A PATCH drops them all, so Fallbacks equals Collections;
	// the next query on the new generation rebuilds what it needs.
	Collections int `json:"collections"`
	// Repaired, ReusedSets and RepairedSets are always 0. They stay in
	// the response so its shape does not change.
	Repaired     int `json:"repaired"`
	Fallbacks    int `json:"fallbacks"`
	ReusedSets   int `json:"reusedSets"`
	RepairedSets int `json:"repairedSets"`
}

// RepairGraph drops every resident collection drawn on old, the graph a
// PATCH superseded, and reports how many it dropped: DropGraph with the
// PATCH response's summary. The next query on the patched graph rebuilds
// what it needs.
//
// Every parameter but old is unused. They fed incremental repair, which
// this drop replaced; the signature stays so existing callers, such as the
// load benchmark's in-process replay, build unchanged.
func (x *Index) RepairGraph(old, patched *graph.Graph, newID string, delta *graph.Delta, maxDirtyFrac float64) RepairSummary {
	n := x.DropGraph(old)
	return RepairSummary{Collections: n, Fallbacks: n}
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
	st.MaxBytes = x.maxBytes
	return st
}

// Len reports the number of resident collections.
func (x *Index) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.lru.Len()
}
