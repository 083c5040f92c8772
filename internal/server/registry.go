package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/graph"
)

// registry is the server's dynamic graph inventory: the datasets preloaded
// from Config.Datasets plus any graphs uploaded through POST /v1/graphs.
// Every query resolves its graph here, taking a reference for the duration
// of the request, so DELETE can retire a graph — and PATCH can advance it
// to a new edit generation — without yanking it out from under in-flight
// solves:
//
//   - acquire/release ref-count in-flight requests per graph *version*: a
//     request pins the exact generation it resolved, and a concurrent
//     PATCH swaps e.cur without disturbing it;
//   - remove unlinks the entry immediately (new requests get 404) and
//     retires its current version; a PATCH retires the superseded version.
//     A retired version's RR-index collections are dropped as soon as the
//     last reference to it is released (immediately when idle). Cache
//     inserts for a version only happen inside a request holding a
//     reference, so after the final release+drop no entry can resurrect a
//     dead version's collections.
//
// Each registration gets a unique cacheID, and each edit generation
// derives a versioned cache ID ("<cacheID>@<gen>") used as the RR-index
// GraphID — so re-registering a name after a delete can never alias the
// dead graph's cache entries, and a PATCH can never serve the previous
// topology's collections.
type registry struct {
	index *Index
	// stateDir, when non-empty, is the directory registrations are
	// persisted to (meta + edge-list files, see snapshot.go) so uploaded
	// graphs survive a restart with their cache IDs intact.
	stateDir string

	// patchMu serializes PATCH /v1/graphs/{name}/edges operations: a patch
	// reads the current version, applies its batch to it, persists, and
	// swaps — a second patch interleaved anywhere in that sequence would
	// apply to a stale topology. Lock order: patchMu before
	// persistMu before nothing; patchMu before mu. The query path
	// (acquire/release) never takes it.
	patchMu sync.Mutex

	// persistMu serializes graph-file I/O (persist on register, unpersist
	// on delete). The query path (acquire/release) never takes it, so a
	// large upload's fingerprint + edge-list write + fsync cannot stall
	// serving traffic; mu is never held while persistMu is taken.
	persistMu sync.Mutex

	mu      sync.Mutex
	entries map[string]*regEntry
	nextGen int64
}

// regEntry is one registered graph name. Its identity (name, cacheID,
// registration generation, source, creation time) is immutable; the
// mutable part is which graphVersion is current.
type regEntry struct {
	name    string
	cacheID string // unique per registration; versioned per edit into GraphIDs
	gen     int64  // the registration counter minted into cacheID
	source  string // "preloaded" (Config.Datasets), "uploaded" (/v1/graphs), "registered"
	created time.Time

	// guarded by registry.mu
	cur        *graphVersion
	deleted    bool
	persisting bool // register's file I/O is still in flight
}

// graphVersion is one immutable edit generation of a registered graph.
// PATCH /v1/graphs/{name}/edges replaces e.cur with a fresh version;
// in-flight requests keep the version they pinned, so a solve never sees
// the graph change mid-request, and its cache inserts stay keyed to the
// generation it actually computed on.
type graphVersion struct {
	d           *datasets.Dataset
	gen         int64  // edit generation: 0 at registration, +1 per PATCH
	id          string // versioned RR-index GraphID: "<cacheID>@<gen>"
	fingerprint string // content fingerprint of d.Graph (graphFingerprint)

	// guarded by registry.mu
	refs    int
	retired bool // superseded by a PATCH, or the entry was deleted
}

// versionedID derives the RR-index GraphID for one edit generation.
func versionedID(cacheID string, gen int64) string {
	return fmt.Sprintf("%s@%d", cacheID, gen)
}

// graphRef is a pinned view of one graph version, held for the duration of
// a request. Everything it exposes is immutable.
type graphRef struct {
	entry *regEntry
	v     *graphVersion
}

func (ref *graphRef) graph() *graph.Graph        { return ref.v.d.Graph }
func (ref *graphRef) gap() core.GAP              { return ref.v.d.GAP }
func (ref *graphRef) dataset() *datasets.Dataset { return ref.v.d }
func (ref *graphRef) id() string                 { return ref.v.id }
func (ref *graphRef) info() graphInfo            { return graphInfoOf(ref.entry, ref.v) }

func newRegistry(index *Index, stateDir string) *registry {
	return &registry{index: index, stateDir: stateDir, entries: make(map[string]*regEntry)}
}

// errRegistryConflict marks registration failures that are the client's
// doing (duplicate name, graph limit), as opposed to server-side
// persistence failures.
var errRegistryConflict = fmt.Errorf("registry conflict")

// register adds a graph under name. It fails if the name is taken
// (errRegistryConflict), or — on a state-backed registry — if the
// registration cannot be persisted (a registration that would silently
// vanish on restart is refused, and rolled back if queries already saw
// it). The entry is serving-visible immediately; the file I/O runs outside
// the registry lock so it never stalls the query path.
func (r *registry) register(name string, d *datasets.Dataset, source string, limit int) (*regEntry, error) {
	fp := graphFingerprint(d.Graph)
	r.mu.Lock()
	if _, ok := r.entries[name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: graph %q already registered", errRegistryConflict, name)
	}
	if limit > 0 && len(r.entries) >= limit {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: graph limit %d reached", errRegistryConflict, limit)
	}
	r.nextGen++
	cacheID := fmt.Sprintf("%s#%d", name, r.nextGen)
	e := &regEntry{
		name:       name,
		cacheID:    cacheID,
		gen:        r.nextGen,
		source:     source,
		created:    time.Now(),
		cur:        &graphVersion{d: d, gen: 0, id: versionedID(cacheID, 0), fingerprint: fp},
		persisting: r.stateDir != "",
	}
	r.entries[name] = e
	v := e.cur
	r.mu.Unlock()
	if r.stateDir == "" {
		return e, nil
	}

	r.persistMu.Lock()
	//comic:allow lockorder persistMu's only job is to serialize graph persistence I/O
	perr := r.persistGraph(e, v)
	r.persistMu.Unlock()

	r.mu.Lock()
	e.persisting = false
	racedDelete := e.deleted // a DELETE arrived mid-persist; it deferred cleanup to us
	rollback := perr != nil && !racedDelete
	if rollback {
		delete(r.entries, name)
		e.deleted = true
		v.retired = true
	}
	drop := rollback && v.refs == 0
	r.mu.Unlock()
	if racedDelete || rollback {
		r.persistMu.Lock()
		//comic:allow lockorder persistMu's only job is to serialize graph persistence I/O
		r.unpersistGraphOwned(e)
		r.persistMu.Unlock()
	}
	if drop {
		r.index.DropGraph(v.d.Graph)
	}
	if perr != nil {
		return nil, fmt.Errorf("persisting graph %q: %v", name, perr)
	}
	if racedDelete {
		return nil, fmt.Errorf("%w: graph %q was deleted during registration", errRegistryConflict, name)
	}
	return e, nil
}

// restore installs a previously persisted registration, keeping its cache
// ID, creation time and edit generation, and fences the generation counter
// so no future registration can re-mint a restored (or skipped) ID.
func (r *registry) restore(e *regEntry, limit int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextGen = max(r.nextGen, e.gen)
	if _, ok := r.entries[e.name]; ok {
		return fmt.Errorf("graph %q already registered", e.name)
	}
	if limit > 0 && len(r.entries) >= limit {
		return fmt.Errorf("graph limit %d reached", limit)
	}
	r.entries[e.name] = e
	return nil
}

// fenceGen advances the generation counter past a persisted generation
// whose entry was not restored (corrupt edge file, name conflict), so the
// dead cache ID can never be reused by a new registration.
func (r *registry) fenceGen(gen int64) {
	r.mu.Lock()
	r.nextGen = max(r.nextGen, gen)
	r.mu.Unlock()
}

// acquire resolves name and pins its current version; callers must
// release the returned ref.
func (r *registry) acquire(name string) (*graphRef, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	v := e.cur
	v.refs++
	return &graphRef{entry: e, v: v}, true
}

// release drops a reference. When the pinned version has been retired
// (superseded by a PATCH, or its entry deleted) and this was the last
// reference, the version's RR-index collections are dropped.
func (r *registry) release(ref *graphRef) {
	v := ref.v
	r.mu.Lock()
	v.refs--
	drop := v.retired && v.refs == 0
	r.mu.Unlock()
	if drop {
		r.index.DropGraph(v.d.Graph)
	}
}

// swapVersion publishes next as e's current version, retiring old. It
// fails when the entry was deleted mid-patch, or old is no longer current
// (both are callers' races to handle; the registry state is unchanged).
// The caller is expected to hold a reference on old, so the retired
// version's collections are dropped by the reference drain, never here.
func (r *registry) swapVersion(e *regEntry, old, next *graphVersion) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.deleted {
		return fmt.Errorf("graph %q was deleted during the update", e.name)
	}
	if e.cur != old {
		return fmt.Errorf("graph %q changed generation during the update", e.name)
	}
	old.retired = true
	e.cur = next
	return nil
}

// remove unlinks name from the registry and deletes its persisted files
// (the graph must not be resurrected by a restart). The current version's
// cache entries are dropped now if it is idle, otherwise when the last
// in-flight request releases it; superseded versions were retired by their
// PATCH and drain the same way. If the entry's registration is still
// persisting its files, cleanup is deferred to the registering goroutine,
// which sees the deleted flag when its I/O completes.
func (r *registry) remove(name string) (*regEntry, bool) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return nil, false
	}
	delete(r.entries, name)
	e.deleted = true
	v := e.cur
	v.retired = true
	persisting := e.persisting
	drop := v.refs == 0
	r.mu.Unlock()
	if !persisting {
		r.persistMu.Lock()
		//comic:allow lockorder persistMu's only job is to serialize graph persistence I/O
		r.unpersistGraphOwned(e)
		r.persistMu.Unlock()
	}
	if drop {
		r.index.DropGraph(v.d.Graph)
	}
	return e, true
}

// infos returns the unified resource representation of every registered
// graph, sorted by name.
func (r *registry) infos() []graphInfo {
	type pair struct {
		e *regEntry
		v *graphVersion
	}
	r.mu.Lock()
	pairs := make([]pair, 0, len(r.entries))
	for _, e := range r.entries {
		pairs = append(pairs, pair{e, e.cur})
	}
	r.mu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].e.name < pairs[j].e.name })
	out := make([]graphInfo, len(pairs))
	for i, p := range pairs {
		out[i] = graphInfoOf(p.e, p.v)
	}
	return out
}

// currentGraphsByID maps each entry's current versioned GraphID to its
// graph, for resolving RR-index snapshot entries at boot.
func (r *registry) currentGraphsByID() map[string]*graph.Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*graph.Graph, len(r.entries))
	for _, e := range r.entries {
		out[e.cur.id] = e.cur.d.Graph
	}
	return out
}

// GraphVersionInfo describes one registered graph's current version — the
// unit of cluster placement and of snapshot publication/adoption.
// Everything here is immutable per version; a PATCH produces a new one.
type GraphVersionInfo struct {
	// Name is the client-visible graph name queries resolve.
	Name string
	// GraphID is the versioned RR-index GraphID
	// ("<name>#<reg-gen>@<edit-gen>"): the cache-key component, and the
	// generation fence the shared snapshot tier publishes and adopts
	// under.
	GraphID string
	// Generation is the edit generation (0 = never patched).
	Generation int64
	// Fingerprint is the content digest of the version's topology and
	// weights; with Name it forms the cluster placement key.
	Fingerprint string
	// Graph is the version's immutable topology.
	Graph *graph.Graph
}

func versionInfoOf(e *regEntry, v *graphVersion) GraphVersionInfo {
	return GraphVersionInfo{
		Name:        e.name,
		GraphID:     v.id,
		Generation:  v.gen,
		Fingerprint: v.fingerprint,
		Graph:       v.d.Graph,
	}
}

// GraphVersions lists every registered graph's current version, sorted by
// name. The cluster layer uses it to compute the placement map and to
// drive rebalancing.
func (s *Server) GraphVersions() []GraphVersionInfo {
	r := s.reg
	type pair struct {
		e *regEntry
		v *graphVersion
	}
	r.mu.Lock()
	pairs := make([]pair, 0, len(r.entries))
	for _, e := range r.entries {
		pairs = append(pairs, pair{e, e.cur})
	}
	r.mu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].e.name < pairs[j].e.name })
	out := make([]GraphVersionInfo, len(pairs))
	for i, p := range pairs {
		out[i] = versionInfoOf(p.e, p.v)
	}
	return out
}

// GraphVersion resolves one graph's current version by name.
func (s *Server) GraphVersion(name string) (GraphVersionInfo, bool) {
	r := s.reg
	r.mu.Lock()
	e, ok := r.entries[name]
	var v *graphVersion
	if ok {
		v = e.cur
	}
	r.mu.Unlock()
	if !ok {
		return GraphVersionInfo{}, false
	}
	return versionInfoOf(e, v), true
}

func (r *registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// --- /v1/graphs wire types and handlers ---

// graphUploadRequest is the body of POST /v1/graphs. EdgeList is the text
// edge-list format of graph.ReadEdgeList ("n m" header, then "src dst
// prob" lines, '#' comments allowed). GAP is optional; absent, the upload
// gets DefaultUploadGAP. Any valid GAP is accepted — competitive and mixed
// regimes included — and the response's "regime" field reports how solves
// on the graph will be routed.
type graphUploadRequest struct {
	Name     string      `json:"name"`
	GAP      *gapPayload `json:"gap,omitempty"`
	EdgeList string      `json:"edgeList"`
}

// graphInfo is the unified resource representation of one registered
// graph. Every surface that describes a graph — POST/GET /v1/graphs
// items, GET /v1/graphs/{name}, the /v1/stats inventory, the PATCH
// response, and the solve responses' graph context — returns exactly this
// object.
type graphInfo struct {
	Name  string     `json:"name"`
	Nodes int        `json:"nodes"`
	Edges int        `json:"edges"`
	GAP   gapPayload `json:"gap"`
	// Regime is the default GAP's cell of the GAP-space partition, so
	// clients can see at registration time how solves on this graph will
	// be routed (and that e.g. a competitive upload registered as such).
	Regime string `json:"regime"`
	// Generation is the graph's edit generation: 0 at registration,
	// incremented by every successful PATCH /v1/graphs/{name}/edges. A
	// solve response reports the generation it actually computed on;
	// clients can pass it back as a PATCH ifGeneration precondition.
	Generation int64 `json:"generation"`
	// Fingerprint digests the graph's full content (nodes, edges,
	// probabilities); it changes exactly when the generation does.
	Fingerprint string    `json:"fingerprint"`
	Source      string    `json:"source"`
	Created     time.Time `json:"created"`
}

// graphInfoOf is the one constructor of graphInfo: every handler reports
// graphs through it, so the surfaces can never drift apart.
func graphInfoOf(e *regEntry, v *graphVersion) graphInfo {
	return graphInfo{
		Name:  e.name,
		Nodes: v.d.Graph.N(),
		Edges: v.d.Graph.M(),
		GAP: gapPayload{
			QA0: v.d.GAP.QA0, QAB: v.d.GAP.QAB,
			QB0: v.d.GAP.QB0, QBA: v.d.GAP.QBA,
		},
		Regime:      v.d.EffectiveRegime().String(),
		Generation:  v.gen,
		Fingerprint: v.fingerprint,
		Source:      e.source,
		Created:     e.created,
	}
}

// DefaultUploadGAP is the GAP attached to uploaded graphs that don't carry
// one: mildly complementary in both directions, matching cmd/comic-serve's
// -qa0/-qab/-qb0/-qba flag defaults.
var DefaultUploadGAP = core.GAP{QA0: 0.5, QAB: 0.8, QB0: 0.5, QBA: 0.8}

// handleGraphs dispatches /v1/graphs (POST upload, GET list).
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleGraphUpload(w, r)
	case http.MethodGet:
		s.nGraphs.Add(1)
		writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.infos()})
	default:
		s.methodNotAllowed(w, r, http.MethodPost, http.MethodGet)
	}
}

// handleGraphByName dispatches /v1/graphs/{name} (GET describe, DELETE).
func (s *Server) handleGraphByName(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet:
		ref, ok := s.reg.acquire(name)
		if !ok {
			s.httpError(w, http.StatusNotFound, codeGraphNotFound, fmt.Sprintf("unknown graph %q", name))
			return
		}
		defer s.reg.release(ref)
		s.nGraphs.Add(1)
		writeJSON(w, http.StatusOK, ref.info())
	case http.MethodDelete:
		e, ok := s.reg.remove(name)
		if !ok {
			s.httpError(w, http.StatusNotFound, codeGraphNotFound, fmt.Sprintf("unknown graph %q", name))
			return
		}
		s.nGraphs.Add(1)
		writeJSON(w, http.StatusOK, map[string]any{"deleted": e.name})
	default:
		s.methodNotAllowed(w, r, http.MethodGet, http.MethodDelete)
	}
}

func (s *Server) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	var req graphUploadRequest
	if !s.decodeBodyLimit(w, r, &req, s.cfg.MaxUploadBytes) {
		return
	}
	name := strings.TrimSpace(req.Name)
	if name == "" || len(name) > 128 || strings.ContainsAny(name, "/\x00") {
		s.httpError(w, http.StatusBadRequest, codeInvalidArgument,
			"graph name must be non-empty, at most 128 bytes, and contain no '/'")
		return
	}
	gap := DefaultUploadGAP
	if req.GAP != nil {
		gap = req.GAP.toGAP()
	}
	if err := gap.Validate(); err != nil {
		s.httpError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	if req.EdgeList == "" {
		s.httpError(w, http.StatusBadRequest, codeInvalidArgument,
			"edgeList must hold a text edge list (\"n m\" header, then \"src dst prob\" lines)")
		return
	}
	g, err := graph.ReadEdgeListLimit(strings.NewReader(req.EdgeList), s.cfg.MaxUploadNodes)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	d := datasets.New(name, g, gap, "uploaded")
	e, err := s.reg.register(name, d, "uploaded", s.cfg.MaxGraphs)
	if err != nil {
		// Name/limit conflicts are the client's fault; a persistence
		// failure (full disk, bad state dir) is the server's.
		if errors.Is(err, errRegistryConflict) {
			s.httpError(w, http.StatusConflict, codeGraphConflict, err.Error())
		} else {
			s.httpError(w, http.StatusInternalServerError, codeInternal, err.Error())
		}
		return
	}
	s.nGraphs.Add(1)
	writeJSON(w, http.StatusCreated, s.reg.infoNow(e))
}

// infoNow returns e's current representation, reading the version pointer
// under the registry lock (a concurrent PATCH may swap it).
func (r *registry) infoNow(e *regEntry) graphInfo {
	r.mu.Lock()
	v := e.cur
	r.mu.Unlock()
	return graphInfoOf(e, v)
}
