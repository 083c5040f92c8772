// Package server implements the comic query-serving layer: a JSON-over-HTTP
// API that answers Com-IC spread, boost, SelfInfMax and CompInfMax queries
// over a dynamic inventory of graphs, amortizing RR-set generation — the
// dominant cost of the TIM-style solvers — behind a shared Index cache.
//
// Endpoints (all request/response bodies are JSON):
//
//	POST   /v1/spread       Monte-Carlo σ_A and σ_B for given seed sets
//	POST   /v1/boost        paired-world CompInfMax objective estimate
//	POST   /v1/selfinfmax   Problem 1 solve (RR-SIM+ + sandwich approximation)
//	POST   /v1/compinfmax   Problem 2 solve (RR-CIM on the q_{B|A}→1 bound)
//	POST   /v1/batch        many queries, one request, shared RR-set builds
//	POST   /v1/jobs         submit a batch asynchronously (worker pool)
//	GET    /v1/jobs         list retained jobs
//	GET    /v1/jobs/{id}    poll a job's status and result
//	DELETE /v1/jobs/{id}    cancel a queued/running job, discard a finished one
//	POST   /v1/graphs       upload a text edge-list graph (+optional GAP)
//	GET    /v1/graphs       list registered graphs
//	GET    /v1/graphs/{name}    describe one graph
//	DELETE /v1/graphs/{name}    retire a graph (drops its cached RR sets)
//	PATCH  /v1/graphs/{name}/edges  apply a batch of edge updates (add /
//	                            remove / reweight), advancing the graph's
//	                            edit generation and dropping the previous
//	                            generation's cached RR-set collections
//	GET    /healthz         liveness probe
//	GET    /v1/stats        cache and request counters, graph inventory
//
// Determinism: a solve request with master seed s returns exactly the seed
// set the offline cmd/comic-seeds tool prints for the same graph, GAPs,
// opposite seeds and budget parameters — whether the RR-set collections
// come out of the cache (warm) or are generated on the fly (cold), and
// whether the query arrives alone, inside a /v1/batch, or through a
// /v1/jobs submission. The cache can therefore be introduced, sized, or
// flushed without changing any response body, only latencies.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/montecarlo"
	"comic/internal/solver"
)

// Config configures a Server.
type Config struct {
	// Datasets maps the names accepted in request bodies to the networks
	// (with their default GAPs) the server answers queries on. They become
	// pre-registered graph-registry entries; clients may add more at
	// runtime through POST /v1/graphs. At least one is required.
	Datasets map[string]*datasets.Dataset
	// CacheBytes bounds the RR-set index (exact resident bytes).
	// 0 means the 1 GiB default — cache keys include client-controlled
	// fields (seed, GAP, opposite seeds), so an unbounded index is a
	// remote memory-growth vector. Negative means explicitly unbounded.
	CacheBytes int64
	// MaxConcurrentBuilds bounds how many RR-set collection builds may
	// run at once; queued builds wait their turn. The cache byte budget
	// covers only resident collections, so without this bound N
	// concurrent distinct queries hold N full collections in flight.
	// Job workers share the same semaphore. 0 means the default of 4;
	// negative means unbounded.
	MaxConcurrentBuilds int
	// MaxK caps the per-request seed-set size (default 500). Requests are
	// additionally capped at the target graph's node count: k must lie in
	// [1, min(MaxK, n)].
	MaxK int
	// MaxRuns caps per-request Monte-Carlo budgets (default 200000).
	MaxRuns int
	// MaxTheta caps per-request RR-set budgets (default 2000000).
	MaxTheta int
	// GreedyRuns is the default Monte-Carlo budget per greedy objective
	// evaluation for solves routed to the mc-greedy fallback (default
	// 200); requests may override it with "greedyRuns", bounded by
	// MaxRuns.
	GreedyRuns int
	// MaxGreedyNodes caps the greedy fallback's ground set to the
	// highest-out-degree nodes (default 512, never below the request's
	// k). Greedy cost scales with ground-set × GreedyRuns simulations, so
	// this is the knob bounding worst-case solve cost for non-submodular
	// regimes. Negative disables the fallback: those regimes then get
	// HTTP 400 naming the regime instead of a solve.
	MaxGreedyNodes int
	// Workers bounds solver parallelism per request (default GOMAXPROCS).
	Workers int

	// MaxBatch caps the number of queries in one /v1/batch request or one
	// job (default 256). The batch/jobs request-body byte limit scales
	// with it (64 KiB per permitted query, minimum 1 MiB).
	MaxBatch int
	// MaxJobs is the async worker-pool size: how many jobs execute
	// concurrently (default 2).
	MaxJobs int
	// MaxQueuedJobs bounds jobs waiting for a worker; submissions beyond
	// it are rejected with 429 (default 64).
	MaxQueuedJobs int
	// RetainedJobs bounds finished jobs kept for polling; the oldest are
	// discarded first (default 256).
	RetainedJobs int

	// MaxGraphs caps the registry size, uploads included (default 64).
	MaxGraphs int
	// MaxUploadBytes caps a POST /v1/graphs body (default 32 MiB).
	MaxUploadBytes int64
	// MaxUploadNodes caps the declared node count of an uploaded edge
	// list (default 2,000,000). The header's node count alone drives CSR
	// allocation — ~12 bytes per node before a single edge — so without
	// this bound a few-byte body could demand gigabytes.
	MaxUploadNodes int

	// StateDir, when non-empty, makes the server's expensive state
	// persistent: dynamically added graphs are written there as they are
	// registered, and SaveState (called by the periodic snapshot loop and
	// on graceful shutdown) snapshots the RR-set index, so a restarted
	// server warm-starts with its uploaded graphs and cached collections
	// intact instead of paying the full cold-solve cost again. New()
	// restores whatever valid state the directory holds; corrupt or stale
	// entries are skipped and counted (IndexStats.RestoreRejects), never
	// served. Empty means fully in-memory (the previous behavior).
	StateDir string
	// SnapshotInterval, when positive and StateDir is set, snapshots the
	// RR-set index on that cadence in the background. Zero means snapshot
	// only on graceful shutdown (and explicit SaveState calls).
	SnapshotInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 1 << 30
	}
	if c.MaxConcurrentBuilds == 0 {
		c.MaxConcurrentBuilds = 4
	}
	if c.MaxK <= 0 {
		c.MaxK = 500
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 200000
	}
	if c.MaxTheta <= 0 {
		c.MaxTheta = 2_000_000
	}
	if c.GreedyRuns <= 0 {
		c.GreedyRuns = 200
	}
	if c.MaxGreedyNodes == 0 {
		c.MaxGreedyNodes = solver.DefaultMaxGreedyNodes
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.MaxQueuedJobs <= 0 {
		c.MaxQueuedJobs = 64
	}
	if c.RetainedJobs <= 0 {
		c.RetainedJobs = 256
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 64
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 32 << 20
	}
	if c.MaxUploadNodes <= 0 {
		c.MaxUploadNodes = 2_000_000
	}
	return c
}

// Server answers comic queries over HTTP. Create one with New; it
// implements http.Handler and is safe for concurrent use. Call Close when
// done to stop the async job workers (Serve/ServeListener do it on
// shutdown).
type Server struct {
	cfg       Config
	index     *Index
	reg       *registry
	jobs      *jobQueue
	mux       *http.ServeMux
	started   time.Time
	closeOnce sync.Once
	snapStop  chan struct{} // non-nil: closing stops the snapshot loop
	snapDone  chan struct{}

	// clusterInfo, when set (SetClusterInfo), contributes a "cluster"
	// section to /healthz and /v1/stats: node identity, membership view,
	// snapshot-store reachability, router counters. The server itself
	// knows nothing about clustering; the hook keeps the dependency
	// pointing from the cluster layer down.
	clusterInfo atomic.Value // of func() map[string]any

	// Request counters, incremented only after a request (or batch/job
	// query) passes validation: rejected requests count as errors, not as
	// served queries.
	nSpread, nBoost, nSelf, nComp atomic.Int64
	nBatch, nJobs, nGraphs        atomic.Int64
	nErrors                       atomic.Int64
	// nRegime counts validated solve queries per GAP regime (indexed by
	// core.Regime), surfaced as the "regimes" map on /v1/stats.
	nRegime [core.RegimeGeneral + 1]atomic.Int64
}

// New validates cfg and returns a ready-to-serve Server with the
// configured datasets pre-registered. With Config.StateDir set, the
// server additionally restores whatever valid persisted state the
// directory holds — dynamically added graphs re-registered under their
// original cache IDs, and the RR-set index rehydrated from its last
// snapshot — so the first queries after a restart are warm.
func New(cfg Config) (*Server, error) {
	if len(cfg.Datasets) == 0 {
		return nil, errors.New("server: Config.Datasets must name at least one dataset")
	}
	for name, d := range cfg.Datasets {
		if d == nil || d.Graph == nil {
			return nil, fmt.Errorf("server: dataset %q has no graph", name)
		}
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		index:   NewIndex(cfg.CacheBytes),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.index.SetBuildLimit(cfg.MaxConcurrentBuilds)
	graphsDir := ""
	if cfg.StateDir != "" {
		graphsDir = stateGraphsDir(cfg.StateDir)
		if err := os.MkdirAll(graphsDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating state dir: %v", err)
		}
		sweepTempFiles(graphsDir)
	}
	s.reg = newRegistry(s.index, graphsDir)

	// Persisted registry identities, by graph name. Config datasets reuse
	// their old cache ID when the rebuilt graph's content fingerprint still
	// matches; everything else re-registers fresh (and the stale snapshot
	// entries keyed by the dead ID are rejected at index load).
	var metas map[string]graphMeta
	if graphsDir != "" {
		metas = readGraphMetas(graphsDir)
	}
	names := make([]string, 0, len(cfg.Datasets))
	for name := range cfg.Datasets {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic generation assignment
	for _, name := range names {
		d := cfg.Datasets[name]
		if m, ok := metas[name]; ok {
			delete(metas, name)
			restored := false
			if m.Source == "preloaded" {
				if m.GraphGen > 0 {
					// The persisted graph was patched past the configured
					// loader's generation 0: its topology lives in the edge
					// file, not in Config.
					if pd := restoreDynamicGraph(graphsDir, m, cfg.MaxUploadNodes); pd != nil {
						restored = s.reg.restore(restoredEntry(m, pd), 0) == nil
					}
				} else if m.Nodes == d.Graph.N() && m.Edges == d.Graph.M() &&
					m.Fingerprint == graphFingerprint(d.Graph) {
					restored = s.reg.restore(restoredEntry(m, d), 0) == nil
				}
			}
			if restored {
				continue
			}
			s.reg.fenceGen(m.Gen)
		}
		if _, err := s.reg.register(name, d, "preloaded", 0); err != nil {
			return nil, fmt.Errorf("server: %v", err)
		}
	}
	// Restore dynamically added graphs (uploads, in-process registrations).
	for _, name := range sortedMetaNames(metas) {
		m := metas[name]
		s.reg.fenceGen(m.Gen)
		d := restoreDynamicGraph(graphsDir, m, cfg.MaxUploadNodes)
		if d == nil {
			continue // corrupt or fingerprint-mismatched edge file: skip
		}
		if err := s.reg.restore(restoredEntry(m, d), cfg.MaxGraphs); err != nil {
			continue
		}
	}
	// Rehydrate the RR-set index against the restored graph inventory,
	// keyed by each entry's current versioned GraphID.
	if cfg.StateDir != "" {
		if _, err := s.index.LoadSnapshot(stateIndexDir(cfg.StateDir), s.reg.currentGraphsByID()); err != nil {
			return nil, fmt.Errorf("server: loading RR-index snapshot: %v", err)
		}
	}

	s.jobs = newJobQueue(s.runBatch, cfg.MaxJobs, cfg.MaxQueuedJobs, cfg.RetainedJobs)
	if cfg.StateDir != "" && cfg.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotInterval)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/spread", s.handleSpread)
	s.mux.HandleFunc("/v1/boost", s.handleBoost)
	s.mux.HandleFunc("/v1/selfinfmax", s.handleSolve("self"))
	s.mux.HandleFunc("/v1/compinfmax", s.handleSolve("comp"))
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/{id}", s.handleJobByID)
	s.mux.HandleFunc("/v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("/v1/graphs/{name}", s.handleGraphByName)
	s.mux.HandleFunc("/v1/graphs/{name}/edges", s.handleGraphEdges)
	return s, nil
}

// restoredEntry rebuilds a registry entry (and its single current version)
// from a persisted graphMeta and the resolved dataset.
func restoredEntry(m graphMeta, d *datasets.Dataset) *regEntry {
	return &regEntry{
		name:    m.Name,
		cacheID: m.CacheID,
		gen:     m.Gen,
		source:  m.Source,
		created: m.Created,
		cur: &graphVersion{
			d:           d,
			gen:         m.GraphGen,
			id:          versionedID(m.CacheID, m.GraphGen),
			fingerprint: m.Fingerprint,
		},
	}
}

// ServeHTTP dispatches to the v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Index exposes the server's RR-set cache (for stats or for sharing with
// in-process solves).
func (s *Server) Index() *Index { return s.index }

// SetClusterInfo installs the function that renders the "cluster" section
// of /healthz and /v1/stats — node identity, membership view, snapshot-
// store reachability, router counters. Called once by the cluster layer
// when it wraps the server; fn must be safe for concurrent use.
func (s *Server) SetClusterInfo(fn func() map[string]any) { s.clusterInfo.Store(fn) }

// clusterSection returns the installed cluster info, or nil when the
// server is not running in cluster mode.
func (s *Server) clusterSection() map[string]any {
	if fn, ok := s.clusterInfo.Load().(func() map[string]any); ok && fn != nil {
		return fn()
	}
	return nil
}

// UploadByteLimit reports the configured request-body cap for graph
// uploads and edge patches, so the routing tier can bound the bodies it
// buffers for proxying with the same limit the serving node enforces.
func (s *Server) UploadByteLimit() int64 { return s.cfg.MaxUploadBytes }

// Close stops the async job workers — pending and running jobs are
// canceled and the pool is drained — and the periodic snapshot loop, if
// one is running. In-flight synchronous requests are unaffected. Close
// does not take a final snapshot; call SaveState first when shutting down
// (Serve/ServeListener do) if the latest index contents should persist.
// Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
		s.jobs.close()
	})
}

// SaveState snapshots the RR-set index into the configured StateDir
// (graphs are persisted incrementally as they are registered, so the index
// snapshot is the only deferred piece). It returns an error when no
// StateDir is configured. Safe for concurrent use; failures are also
// counted in IndexStats.SnapshotErrors.
func (s *Server) SaveState() error {
	if s.cfg.StateDir == "" {
		return errNoStateDir
	}
	return s.index.SaveSnapshot(stateIndexDir(s.cfg.StateDir))
}

// snapshotLoop snapshots the index every interval until Close. Errors are
// not fatal — the next tick retries — and are visible to operators as
// IndexStats.SnapshotErrors via /v1/stats.
func (s *Server) snapshotLoop(interval time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			_ = s.SaveState()
		}
	}
}

// RegisterGraph adds a graph to the server's registry under the given
// name, exactly as a POST /v1/graphs upload would: queries may target it
// immediately. The dataset's GAP is its default GAP for queries that don't
// override one. It fails if the name is already registered or the graph
// limit is reached.
func (s *Server) RegisterGraph(name string, d *datasets.Dataset) error {
	if d == nil || d.Graph == nil {
		return fmt.Errorf("server: graph %q is nil", name)
	}
	if err := d.GAP.Validate(); err != nil {
		return fmt.Errorf("server: graph %q: %v", name, err)
	}
	_, err := s.reg.register(name, d, "registered", s.cfg.MaxGraphs)
	if err != nil {
		return fmt.Errorf("server: %v", err)
	}
	return nil
}

// UnregisterGraph retires a graph, exactly as DELETE /v1/graphs/{name}
// would: new queries get 404 immediately, in-flight queries finish, and
// the graph's cached RR-set collections are dropped once the last
// in-flight query releases it. It reports whether the name was registered.
func (s *Server) UnregisterGraph(name string) bool {
	_, ok := s.reg.remove(name)
	return ok
}

// GraphNames lists the currently registered graph names, sorted.
func (s *Server) GraphNames() []string { return s.reg.names() }

// Serve builds a Server from cfg and runs it on addr until ctx is canceled,
// then shuts down gracefully, draining in-flight requests for up to ten
// seconds. It returns http.ErrServerClosed-free: nil on clean shutdown.
func Serve(ctx context.Context, addr string, cfg Config) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, l, cfg)
}

// ServeListener is Serve on an already-bound listener, for callers that
// need to know the port before serving (e.g. addr ":0" in tests). It takes
// ownership of l.
func ServeListener(ctx context.Context, l net.Listener, cfg Config) error {
	s, err := New(cfg)
	if err != nil {
		//comic:allow errlost boot already failed; the config error is what the caller needs
		l.Close()
		return err
	}
	defer s.Close()
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// Snapshot-on-shutdown: with a StateDir configured, the drained
		// server persists its RR-set index so the next boot starts warm.
		if cfg.StateDir != "" {
			if err := s.SaveState(); err != nil {
				return fmt.Errorf("server: shutdown snapshot: %w", err)
			}
		}
		return nil
	}
}

// --- request/response payloads ---

// gapPayload is the wire form of a GAP; absent → the dataset's learned GAP.
type gapPayload struct {
	QA0 float64 `json:"qa0"`
	QAB float64 `json:"qab"`
	QB0 float64 `json:"qb0"`
	QBA float64 `json:"qba"`
}

func (p *gapPayload) toGAP() core.GAP {
	return core.GAP{QA0: p.QA0, QAB: p.QAB, QB0: p.QB0, QBA: p.QBA}
}

// estimateRequest is the body of /v1/spread and /v1/boost.
type estimateRequest struct {
	Dataset string      `json:"dataset"`
	GAP     *gapPayload `json:"gap,omitempty"`
	SeedsA  []int32     `json:"seedsA,omitempty"`
	SeedsB  []int32     `json:"seedsB,omitempty"`
	Runs    int         `json:"runs,omitempty"`
	Seed    *uint64     `json:"seed,omitempty"`
}

// spreadResponse is the body returned by /v1/spread.
type spreadResponse struct {
	Dataset   string  `json:"dataset"`
	MeanA     float64 `json:"meanA"`
	StderrA   float64 `json:"stderrA"`
	MeanB     float64 `json:"meanB"`
	StderrB   float64 `json:"stderrB"`
	Runs      int     `json:"runs"`
	Seed      uint64  `json:"seed"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// boostResponse is the body returned by /v1/boost.
type boostResponse struct {
	Dataset   string  `json:"dataset"`
	Boost     float64 `json:"boost"`
	Stderr    float64 `json:"stderr"`
	Runs      int     `json:"runs"`
	Seed      uint64  `json:"seed"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// solveRequest is the body of /v1/selfinfmax (uses SeedsB as the fixed
// opposite set) and /v1/compinfmax (uses SeedsA).
type solveRequest struct {
	Dataset    string      `json:"dataset"`
	GAP        *gapPayload `json:"gap,omitempty"`
	K          int         `json:"k"`
	SeedsA     []int32     `json:"seedsA,omitempty"`
	SeedsB     []int32     `json:"seedsB,omitempty"`
	Epsilon    float64     `json:"epsilon,omitempty"`
	FixedTheta int         `json:"fixedTheta,omitempty"`
	MaxTheta   int         `json:"maxTheta,omitempty"`
	EvalRuns   int         `json:"evalRuns,omitempty"`
	// GreedyRuns overrides the server's default Monte-Carlo budget per
	// greedy evaluation when the planner routes to the mc-greedy fallback
	// (bounded by MaxRuns; ignored on submodular routes).
	GreedyRuns int     `json:"greedyRuns,omitempty"`
	Seed       *uint64 `json:"seed,omitempty"`
}

// solveCandidate is one sandwich candidate in a solveResponse.
type solveCandidate struct {
	Name      string  `json:"name"`
	Seeds     []int32 `json:"seeds"`
	Objective float64 `json:"objective"`
	Theta     int     `json:"theta,omitempty"`
}

// planPayload is the wire form of a solver.Plan: how the planner routed
// the request's GAP.
type planPayload struct {
	Regime    string `json:"regime"`
	Algorithm string `json:"algorithm"`
	Guarantee string `json:"guarantee"`
	Reason    string `json:"reason"`
}

// solveResponse is the body returned by the solve endpoints.
type solveResponse struct {
	Dataset string `json:"dataset"`
	// Graph is the unified resource representation of the graph version the
	// solve actually computed on — its generation and fingerprint pin the
	// topology, so a client can detect that a concurrent PATCH landed (and
	// use Generation as an ifGeneration precondition for its own patch).
	Graph      graphInfo        `json:"graph"`
	Problem    string           `json:"problem"`
	K          int              `json:"k"`
	Seed       uint64           `json:"seed"`
	Seeds      []int32          `json:"seeds"`
	Objective  float64          `json:"objective"`
	Chosen     string           `json:"chosen"`
	UpperRatio float64          `json:"upperRatio,omitempty"`
	Plan       planPayload      `json:"plan"`
	Candidates []solveCandidate `json:"candidates"`
	ElapsedMs  float64          `json:"elapsedMs"`
}

// statsResponse is the body returned by /v1/stats. The per-endpoint
// request counters cover accepted (validated) requests only; rejected
// requests are counted once, under "errors".
type statsResponse struct {
	UptimeSeconds float64          `json:"uptimeSeconds"`
	Index         IndexStats       `json:"index"`
	Requests      map[string]int64 `json:"requests"`
	// Regimes counts validated solve queries by the GAP regime the
	// planner classified them into (all six regimes always present).
	Regimes  map[string]int64 `json:"regimes"`
	Jobs     []jobStatus      `json:"jobs,omitempty"`
	Datasets []graphInfo      `json:"datasets"`
	// Cluster is present in cluster mode only: node identity, membership
	// view, snapshot-store reachability, and the router's proxy /
	// singleflight / rebalance counters (see SetClusterInfo).
	Cluster map[string]any `json:"cluster,omitempty"`
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	payload := map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.started).Seconds(),
		"datasets":      s.reg.names(),
	}
	if cs := s.clusterSection(); cs != nil {
		payload["cluster"] = cs
	}
	writeJSON(w, http.StatusOK, payload)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	infos := s.reg.infos()
	regimes := make(map[string]int64, len(core.Regimes()))
	for _, r := range core.Regimes() {
		regimes[r.String()] = s.nRegime[r].Load()
	}
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Index:         s.index.Stats(),
		Regimes:       regimes,
		Requests: map[string]int64{
			"spread":     s.nSpread.Load(),
			"boost":      s.nBoost.Load(),
			"selfinfmax": s.nSelf.Load(),
			"compinfmax": s.nComp.Load(),
			"batch":      s.nBatch.Load(),
			"jobs":       s.nJobs.Load(),
			"graphs":     s.nGraphs.Load(),
			"errors":     s.nErrors.Load(),
		},
		Jobs:     s.jobs.list(),
		Datasets: infos,
		Cluster:  s.clusterSection(),
	})
}

func (s *Server) handleSpread(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	var req estimateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	out, aerr := s.runSpread(&req)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleBoost(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	var req estimateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	out, aerr := s.runBoost(&req)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSolve returns the handler for one of the two seed-selection
// problems.
func (s *Server) handleSolve(problem string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.requireMethod(w, r, http.MethodPost) {
			return
		}
		var req solveRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		out, aerr := s.runSolve(problem, &req)
		if aerr != nil {
			s.writeErr(w, aerr)
			return
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// --- query execution (shared by endpoints, /v1/batch and /v1/jobs) ---

// validateEstimate validates the shared body of the two Monte-Carlo
// queries, filling in defaults (runs 10000, seed 1). On success it returns
// the pinned graph reference — the caller must release it after use.
func (s *Server) validateEstimate(req *estimateRequest) (*graphRef, core.GAP, *apiError) {
	ref, aerr := s.acquireGraph(req.Dataset)
	if aerr != nil {
		return nil, core.GAP{}, aerr
	}
	gap := ref.gap()
	if req.GAP != nil {
		gap = req.GAP.toGAP()
	}
	if err := gap.Validate(); err != nil {
		s.reg.release(ref)
		return nil, core.GAP{}, s.fail(http.StatusBadRequest, codeInvalidArgument, "%s", err.Error())
	}
	if req.Runs <= 0 {
		// The default is clamped to the cap; only explicit client values
		// above it are rejected.
		req.Runs = min(10000, s.cfg.MaxRuns)
	}
	if req.Runs > s.cfg.MaxRuns {
		s.reg.release(ref)
		return nil, core.GAP{}, s.fail(http.StatusBadRequest, codeInvalidArgument,
			"runs %d exceeds limit %d", req.Runs, s.cfg.MaxRuns)
	}
	if req.Seed == nil {
		one := uint64(1)
		req.Seed = &one
	}
	if aerr := s.checkSeeds(ref.graph(), req.SeedsA, "seedsA"); aerr != nil {
		s.reg.release(ref)
		return nil, core.GAP{}, aerr
	}
	if aerr := s.checkSeeds(ref.graph(), req.SeedsB, "seedsB"); aerr != nil {
		s.reg.release(ref)
		return nil, core.GAP{}, aerr
	}
	return ref, gap, nil
}

// runSpread validates and executes one spread query.
func (s *Server) runSpread(req *estimateRequest) (*spreadResponse, *apiError) {
	ref, gap, aerr := s.validateEstimate(req)
	if aerr != nil {
		return nil, aerr
	}
	defer s.reg.release(ref)
	s.nSpread.Add(1)
	t0 := time.Now()
	est := montecarlo.New(ref.graph(), gap)
	est.Workers = s.cfg.Workers
	res := est.Estimate(req.SeedsA, req.SeedsB, req.Runs, *req.Seed)
	return &spreadResponse{
		Dataset: req.Dataset,
		MeanA:   res.MeanA, StderrA: res.StderrA,
		MeanB: res.MeanB, StderrB: res.StderrB,
		Runs: res.Runs, Seed: *req.Seed,
		ElapsedMs: msSince(t0),
	}, nil
}

// runBoost validates and executes one boost query.
func (s *Server) runBoost(req *estimateRequest) (*boostResponse, *apiError) {
	ref, gap, aerr := s.validateEstimate(req)
	if aerr != nil {
		return nil, aerr
	}
	defer s.reg.release(ref)
	if len(req.SeedsB) == 0 {
		return nil, s.fail(http.StatusBadRequest, codeInvalidArgument, "boost requires a non-empty seedsB")
	}
	s.nBoost.Add(1)
	t0 := time.Now()
	est := montecarlo.New(ref.graph(), gap)
	est.Workers = s.cfg.Workers
	mean, stderr := est.BoostPaired(req.SeedsA, req.SeedsB, req.Runs, *req.Seed)
	return &boostResponse{
		Dataset: req.Dataset,
		Boost:   mean, Stderr: stderr,
		Runs: req.Runs, Seed: *req.Seed,
		ElapsedMs: msSince(t0),
	}, nil
}

// runSolve validates and executes one seed-selection query. The solver
// configuration mirrors cmd/comic-seeds exactly (epsilon 0.5, 10000
// evaluation runs, seed 1 by default), so a warm cache answer selects the
// same seed sets and objectives as the offline tool.
func (s *Server) runSolve(problem string, req *solveRequest) (*solveResponse, *apiError) {
	ref, aerr := s.acquireGraph(req.Dataset)
	if aerr != nil {
		return nil, aerr
	}
	defer s.reg.release(ref)
	gap := ref.gap()
	if req.GAP != nil {
		gap = req.GAP.toGAP()
	}
	if err := gap.Validate(); err != nil {
		return nil, s.fail(http.StatusBadRequest, codeInvalidArgument, "%s", err.Error())
	}
	// k is capped by both the operator limit and the graph: more seeds
	// than nodes would push k > n into the θ machinery (where ln C(n,k)
	// degenerates) and ask selection for more distinct nodes than exist.
	n := ref.graph().N()
	if maxK := min(s.cfg.MaxK, n); req.K <= 0 || req.K > maxK {
		return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
			"k must be in [1, min(maxK %d, n %d)] = [1, %d], got %d", s.cfg.MaxK, n, maxK, req.K)
	}
	if req.FixedTheta > s.cfg.MaxTheta || req.MaxTheta > s.cfg.MaxTheta {
		return nil, s.fail(http.StatusBadRequest, codeInvalidArgument, "theta budget exceeds limit %d", s.cfg.MaxTheta)
	}
	if req.EvalRuns <= 0 {
		// Make the 10000-run solver default explicit so the cap below
		// governs it too (clamped, like the spread default).
		req.EvalRuns = min(10000, s.cfg.MaxRuns)
	}
	if req.EvalRuns > s.cfg.MaxRuns {
		return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
			"evalRuns %d exceeds limit %d", req.EvalRuns, s.cfg.MaxRuns)
	}
	if req.GreedyRuns < 0 || req.GreedyRuns > s.cfg.MaxRuns {
		return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
			"greedyRuns %d outside [0, %d]", req.GreedyRuns, s.cfg.MaxRuns)
	}
	var opposite []int32
	switch problem {
	case "self":
		if len(req.SeedsA) > 0 {
			return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
				"selfinfmax selects the A-seeds; pass the fixed B-seeds as seedsB")
		}
		opposite = req.SeedsB
	case "comp":
		if len(req.SeedsB) > 0 {
			return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
				"compinfmax selects the B-seeds; pass the fixed A-seeds as seedsA")
		}
		opposite = req.SeedsA
	}
	if aerr := s.checkSeeds(ref.graph(), opposite, "opposite seeds"); aerr != nil {
		return nil, aerr
	}
	if problem == "self" {
		s.nSelf.Add(1)
	} else {
		s.nComp.Add(1)
	}
	if r := gap.Regime(); r <= core.RegimeGeneral {
		s.nRegime[r].Add(1)
	}

	cfg := solver.NewConfig(req.K)
	if req.Epsilon > 0 {
		cfg.TIM.Epsilon = req.Epsilon
	}
	cfg.TIM.FixedTheta = req.FixedTheta
	cfg.TIM.MaxTheta = s.cfg.MaxTheta // operator cap applies to derived theta too
	if req.MaxTheta > 0 {
		cfg.TIM.MaxTheta = req.MaxTheta
	}
	if req.EvalRuns > 0 {
		cfg.EvalRuns = req.EvalRuns
	}
	cfg.GreedyRuns = s.cfg.GreedyRuns
	if req.GreedyRuns > 0 {
		cfg.GreedyRuns = req.GreedyRuns
	}
	cfg.MaxGreedyNodes = s.cfg.MaxGreedyNodes
	// Default seed 1 only when the field is absent: an explicit
	// "seed": 0 is a legitimate master seed and must round-trip, the
	// same determinism contract /v1/spread and /v1/boost honor.
	cfg.Seed = 1
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	cfg.TIM.Workers = s.cfg.Workers
	cfg.Collections = s.index
	// The versioned cache ID ("<registration>#<gen>@<edit-gen>", never the
	// client-visible name) keys the index: a name reused after DELETE can
	// never alias the retired graph's collections, and a patched graph can
	// never serve the previous topology's collections.
	cfg.GraphID = ref.id()

	t0 := time.Now()
	var res *solver.Result
	var err error
	if problem == "self" {
		res, err = solver.SolveSelfInfMax(ref.graph(), gap, opposite, cfg)
	} else {
		res, err = solver.SolveCompInfMax(ref.graph(), gap, opposite, cfg)
	}
	if err != nil {
		// An unsupported regime (greedy fallback disabled by the operator)
		// is the client's request shape, not a server fault: 400, naming
		// the regime. Only a panicking build is a 500.
		var ure *solver.UnsupportedRegimeError
		switch {
		case errors.Is(err, ErrBuildPanic):
			return nil, s.fail(http.StatusInternalServerError, codeInternal, "%s", err.Error())
		case errors.As(err, &ure):
			return nil, s.fail(http.StatusBadRequest, codeUnsupportedRegime, "%s", err.Error()).
				withDetails(map[string]any{"regime": ure.Regime.String(), "problem": ure.Problem})
		default:
			return nil, s.fail(http.StatusBadRequest, codeInvalidArgument, "%s", err.Error())
		}
	}
	out := &solveResponse{
		Dataset:    req.Dataset,
		Graph:      ref.info(),
		Problem:    problem,
		K:          req.K,
		Seed:       cfg.Seed,
		Seeds:      res.Seeds,
		Objective:  res.Objective,
		Chosen:     res.Chosen,
		UpperRatio: res.UpperRatio,
		Plan: planPayload{
			Regime:    res.Plan.Regime.String(),
			Algorithm: string(res.Plan.Algorithm),
			Guarantee: res.Plan.Guarantee,
			Reason:    res.Plan.Reason,
		},
		ElapsedMs: msSince(t0),
	}
	for _, c := range res.Candidates {
		sc := solveCandidate{Name: c.Name, Seeds: c.Seeds, Objective: c.Objective}
		if c.Stats != nil {
			sc.Theta = c.Stats.Theta
		}
		out.Candidates = append(out.Candidates, sc)
	}
	return out, nil
}

// --- shared plumbing ---

// decodeBody parses a JSON request body with unknown fields rejected,
// bounded at 1 MiB (graph uploads and edge patches use decodeBodyLimit
// with the larger upload cap). The HTTP method is the handler's business,
// gated before the body is touched (requireMethod / methodNotAllowed).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	return s.decodeBodyLimit(w, r, dst, 1<<20)
}

func (s *Server) decodeBodyLimit(w http.ResponseWriter, r *http.Request, dst any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.httpError(w, http.StatusBadRequest, codeInvalidArgument, "bad request body: "+err.Error())
		return false
	}
	return true
}

// acquireGraph resolves a dataset/graph name through the registry,
// pinning its current version; the caller must release the returned ref.
func (s *Server) acquireGraph(name string) (*graphRef, *apiError) {
	ref, ok := s.reg.acquire(name)
	if !ok {
		return nil, s.fail(http.StatusNotFound, codeGraphNotFound,
			"unknown dataset %q (have %v)", name, s.reg.names())
	}
	return ref, nil
}

func (s *Server) checkSeeds(g *graph.Graph, seeds []int32, what string) *apiError {
	n := int32(g.N())
	for _, v := range seeds {
		if v < 0 || v >= n {
			return s.fail(http.StatusBadRequest, codeInvalidArgument,
				"%s: node %d out of range [0,%d)", what, v, n)
		}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
