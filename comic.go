// Package comic is a Go implementation of the Comparative Independent
// Cascade (Com-IC) model and the influence-maximization algorithms of
//
//	Wei Lu, Wei Chen, Laks V.S. Lakshmanan.
//	"From Competition to Complementarity: Comparative Influence Diffusion
//	and Maximization." PVLDB 9(2) / VLDB 2016. arXiv:1507.00317.
//
// Com-IC models two propagating items A and B whose interaction ranges from
// pure competition to perfect complementarity, controlled by four Global
// Adoption Probabilities (GAPs). The package exposes:
//
//   - the diffusion engine and possible-world model (Simulate, NewSimulator,
//     SampleWorld),
//   - Monte-Carlo spread/boost estimation (EstimateSpread, EstimateBoost),
//   - the two seed-selection problems with RR-set + sandwich approximation
//     solvers (SelfInfMax, CompInfMax),
//   - baseline selectors (HighDegreeSeeds, PageRankSeeds, RandomSeeds,
//     CopyingSeeds, GreedySeeds),
//   - GAP learning from action logs (GenerateActionLog, LearnGAP),
//   - the paper's four evaluation datasets as synthetic stand-ins
//     (FlixsterDataset and friends), and
//   - graph construction, generation and serialization utilities.
//
// Entry points accept a deterministic master seed; identical inputs always
// produce identical outputs, regardless of GOMAXPROCS.
package comic

import (
	"context"
	"io"
	"net/http"

	"comic/internal/actionlog"
	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/montecarlo"
	"comic/internal/multi"
	"comic/internal/rng"
	"comic/internal/seeds"
	"comic/internal/server"
	"comic/internal/solver"
)

// Core model types.
type (
	// Graph is a directed social network with edge influence probabilities.
	Graph = graph.Graph
	// GraphBuilder accumulates edges into an immutable Graph.
	GraphBuilder = graph.Builder
	// GAP holds the four Global Adoption Probabilities of the NLA.
	GAP = core.GAP
	// Item identifies one of the two propagating entities.
	Item = core.Item
	// State is a node's NLA state with respect to one item.
	State = core.State
	// Simulator runs single diffusions with reusable scratch.
	Simulator = core.Simulator
	// World is an explicitly sampled possible world.
	World = core.World
	// Trace is a full record of one diffusion.
	Trace = core.Trace
	// RNG is the deterministic random number generator used throughout.
	RNG = rng.RNG
	// Dataset bundles a synthetic stand-in network with its learned GAPs.
	Dataset = datasets.Dataset
	// ActionLog is a timestamped user action log (§7.2).
	ActionLog = actionlog.Log
	// ActionLogPair declares one item pair for log generation.
	ActionLogPair = actionlog.Pair
	// GAPEstimate is a learned GAP with confidence intervals.
	GAPEstimate = actionlog.GAPEstimate
	// SeedResult is the outcome of a SelfInfMax/CompInfMax solve: the
	// selected seeds and candidates plus the Plan (regime + algorithm +
	// guarantee) the solver chose for the request's GAP.
	SeedResult = solver.Result
	// Regime is a GAP's cell of the GAP-space partition (competition,
	// one-way suppression, indifference, one-way complementarity, Q+,
	// general); compute it with GAP.Regime().
	Regime = core.Regime
	// SolvePlan records how a solve was routed: the GAP's regime, the
	// algorithm chosen for it, and the guarantee that algorithm carries.
	SolvePlan = solver.Plan
)

// Regime constants, re-exported for routing and assertions on SolvePlan.
const (
	RegimeIndifference          = core.RegimeIndifference
	RegimeOneWayComplementarity = core.RegimeOneWayComplementarity
	RegimeQPlus                 = core.RegimeQPlus
	RegimeOneWaySuppression     = core.RegimeOneWaySuppression
	RegimeCompetition           = core.RegimeCompetition
	RegimeGeneral               = core.RegimeGeneral
)

// Item and state constants.
const (
	ItemA = core.A
	ItemB = core.B

	StateIdle      = core.Idle
	StateSuspended = core.Suspended
	StateAdopted   = core.Adopted
	StateRejected  = core.Rejected
)

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// ReadGraph parses a text edge list ("n m" header, then "src dst prob").
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes g as a text edge list.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// NewSimulator returns a reusable Com-IC simulator for g under gap.
func NewSimulator(g *Graph, gap GAP) *Simulator { return core.NewSimulator(g, gap) }

// SampleWorld draws a complete possible world (§5.1).
func SampleWorld(g *Graph, r *RNG) *World { return core.SampleWorld(g, r) }

// Simulate runs a single Com-IC diffusion and returns the numbers of A- and
// B-adopted nodes.
func Simulate(g *Graph, gap GAP, seedsA, seedsB []int32, seed uint64) (countA, countB int) {
	return core.NewSimulator(g, gap).Run(seedsA, seedsB, rng.New(seed))
}

// SpreadEstimate carries Monte-Carlo spread estimates with standard errors.
type SpreadEstimate = montecarlo.Result

// EstimateSpread estimates σ_A and σ_B by `runs` parallel Monte-Carlo
// simulations (the paper evaluates with 10K runs).
func EstimateSpread(g *Graph, gap GAP, seedsA, seedsB []int32, runs int, seed uint64) SpreadEstimate {
	return montecarlo.New(g, gap).Estimate(seedsA, seedsB, runs, seed)
}

// EstimateBoost estimates the CompInfMax objective σ_A(S_A,S_B)−σ_A(S_A,∅)
// with common-random-number paired worlds.
func EstimateBoost(g *Graph, gap GAP, seedsA, seedsB []int32, runs int, seed uint64) (mean, stderr float64) {
	return montecarlo.New(g, gap).BoostPaired(seedsA, seedsB, runs, seed)
}

// Options tunes the SelfInfMax and CompInfMax solvers.
type Options struct {
	// Epsilon is the TIM accuracy knob of Eq. 3 (default 0.5, the paper's
	// choice; smaller is slower and tighter).
	Epsilon float64
	// FixedTheta, when positive, bypasses the ε-driven RR-set budget.
	FixedTheta int
	// MaxTheta caps the ε-driven budget (default 2,000,000).
	MaxTheta int
	// EvalRuns is the Monte-Carlo budget used to score candidate seed sets
	// under the original GAPs (default 10,000).
	EvalRuns int
	// Seed drives all randomness (default 1).
	Seed uint64
	// IncludeGreedy adds the CELF Monte-Carlo greedy candidate S_σ to Q+
	// sandwich solves (expensive; off by default). The greedy fallback for
	// non-submodular regimes runs regardless of this switch.
	IncludeGreedy bool
	// GreedyRuns is the Monte-Carlo budget per greedy objective
	// evaluation, for both IncludeGreedy candidates and the
	// non-submodular-regime fallback (default 200).
	GreedyRuns int
	// MaxGreedyNodes caps the greedy fallback's ground set to the
	// highest-out-degree nodes (default 512, never below k). Negative
	// disables the fallback: GAPs whose regime needs it then fail with
	// solver.UnsupportedRegimeError instead of running an unbounded
	// Monte-Carlo greedy.
	MaxGreedyNodes int
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Index, when non-nil, caches RR-set collections across solves (see
	// NewRRIndex): repeated solves with identical inputs skip RR-set
	// generation, the dominant solver cost, and return identical results.
	Index *RRIndex
	// GraphID names the graph in Index cache keys, letting solves on
	// distinct loads of the same graph share entries. When empty, the
	// graph's pointer identity keys the cache instead — always safe, but
	// hits then require passing the same *Graph instance.
	GraphID string
}

func (o Options) solverConfig(k int) solver.Config {
	cfg := solver.NewConfig(k)
	if o.Epsilon > 0 {
		cfg.TIM.Epsilon = o.Epsilon
	}
	cfg.TIM.FixedTheta = o.FixedTheta
	if o.MaxTheta > 0 {
		cfg.TIM.MaxTheta = o.MaxTheta
	}
	if o.EvalRuns > 0 {
		cfg.EvalRuns = o.EvalRuns
	}
	cfg.Seed = o.Seed
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cfg.IncludeGreedy = o.IncludeGreedy
	if o.GreedyRuns > 0 {
		cfg.GreedyRuns = o.GreedyRuns
	}
	cfg.MaxGreedyNodes = o.MaxGreedyNodes
	cfg.TIM.Workers = o.Workers
	if o.Index != nil {
		cfg.Collections = o.Index
		cfg.GraphID = o.GraphID
	}
	return cfg
}

// SelfInfMax solves Problem 1: find k A-seeds maximizing σ_A given the
// fixed B-seed set, for any GAP in the model's domain. The regime-aware
// planner (internal/solver) routes the request: exact GeneralTIM over
// RR-SIM+ sets where the regime makes RR sets exact, the sandwich
// approximation for the remaining mutually complementary GAPs (§6), and a
// CELF Monte-Carlo greedy for the non-submodular regimes. The returned
// result's Plan names the chosen regime, algorithm and guarantee.
func SelfInfMax(g *Graph, gap GAP, seedsB []int32, k int, opts Options) (*SeedResult, error) {
	return solver.SolveSelfInfMax(g, gap, seedsB, opts.solverConfig(k))
}

// CompInfMax solves Problem 2: find k B-seeds maximizing the boost
// σ_A(S_A,S_B) − σ_A(S_A,∅) given the fixed A-seed set, for any GAP in the
// model's domain: GeneralTIM over RR-CIM sets on the q_{B|A}→1 upper bound
// for mutually complementary GAPs (§6.3, §6.4), a closed-form zero answer
// when A is indifferent to B, and the Monte-Carlo greedy otherwise.
func CompInfMax(g *Graph, gap GAP, seedsA []int32, k int, opts Options) (*SeedResult, error) {
	return solver.SolveCompInfMax(g, gap, seedsA, opts.solverConfig(k))
}

// Baseline seed selectors (§7.1, §7.3).

// HighDegreeSeeds returns the k highest out-degree nodes.
func HighDegreeSeeds(g *Graph, k int) []int32 { return seeds.HighDegree(g, k) }

// PageRankSeeds returns the k nodes with highest reversed PageRank.
func PageRankSeeds(g *Graph, k int) []int32 { return seeds.PageRank(g, k) }

// RandomSeeds returns k distinct uniformly random nodes.
func RandomSeeds(g *Graph, k int, seed uint64) []int32 {
	return seeds.Random(g, k, rng.New(seed))
}

// CopyingSeeds returns the top-k of the opposite item's seeds, filled with
// high-degree nodes when short.
func CopyingSeeds(g *Graph, opposite []int32, k int) []int32 {
	return seeds.Copying(g, opposite, k)
}

// GreedySeeds runs the CELF Monte-Carlo greedy of Kempe et al. on the
// SelfInfMax objective with `runs` simulations per evaluation.
func GreedySeeds(g *Graph, gap GAP, fixedB []int32, k, runs int, seed uint64) []int32 {
	f := seeds.SelfInfMaxObjective(g, gap, fixedB, runs, seed)
	return seeds.Greedy(g, f, k, nil)
}

// Action logs and learning (§7.2).

// GenerateActionLog synthesizes a timestamped action log by running one
// Com-IC diffusion per item pair with the given ground-truth GAPs.
func GenerateActionLog(g *Graph, pairs []ActionLogPair, signalRate float64, seed uint64) *ActionLog {
	return actionlog.Generate(g, pairs, actionlog.GenerateOptions{SignalRate: signalRate}, rng.New(seed))
}

// LearnGAP estimates the GAPs of an item pair from an action log with the
// §7.2 estimator, with 95% confidence intervals.
func LearnGAP(log *ActionLog, itemA, itemB int32) (*GAPEstimate, error) {
	return actionlog.LearnGAP(log, itemA, itemB)
}

// LearnEdgeProbabilities learns p(u,v) from an action log with the static
// Bernoulli model of Goyal et al. [12].
func LearnEdgeProbabilities(log *ActionLog, g *Graph) []float64 {
	return actionlog.LearnEdgeProbabilities(log, g)
}

// ReadActionLog parses the CSV form of an action log.
func ReadActionLog(r io.Reader) (*ActionLog, error) { return actionlog.ReadCSV(r) }

// WriteActionLog writes an action log as CSV.
func WriteActionLog(w io.Writer, log *ActionLog) error { return actionlog.WriteCSV(w, log) }

// Datasets (§7, Table 1; synthetic stand-ins, see DESIGN.md).

// FlixsterDataset returns the Flixster stand-in at the given scale ∈ (0,1].
func FlixsterDataset(scale float64, seed uint64) *Dataset { return datasets.Flixster(scale, seed) }

// DoubanBookDataset returns the Douban-Book stand-in.
func DoubanBookDataset(scale float64, seed uint64) *Dataset { return datasets.DoubanBook(scale, seed) }

// DoubanMovieDataset returns the Douban-Movie stand-in.
func DoubanMovieDataset(scale float64, seed uint64) *Dataset {
	return datasets.DoubanMovie(scale, seed)
}

// LastFMDataset returns the Last.fm stand-in.
func LastFMDataset(scale float64, seed uint64) *Dataset { return datasets.LastFM(scale, seed) }

// DatasetByName builds one of the four paper datasets by its Table 1 name
// ("Flixster", "Douban-Book", "Douban-Movie", "Last.fm").
func DatasetByName(name string, scale float64, seed uint64) (*Dataset, error) {
	return datasets.ByName(name, scale, seed)
}

// DatasetNames lists the four paper dataset names in Table 1 order.
func DatasetNames() []string { return datasets.Names() }

// NewDataset bundles a graph with its default GAP, classifying the GAP's
// regime at construction, for serving via ServeConfig.Datasets or
// Server.RegisterGraph.
func NewDataset(name string, g *Graph, gap GAP, pairName string) *Dataset {
	return datasets.New(name, g, gap, pairName)
}

// Query serving (cmd/comic-serve). The serving layer amortizes RR-set
// generation — the dominant cost of SelfInfMax/CompInfMax — behind a
// shared, concurrency-safe index so that repeated queries on a loaded
// dataset skip straight to seed selection.

// RRIndex is a cache of RR-set collections keyed by everything that
// determines their content (graph, generator kind, GAP, opposite seeds, k,
// budget, master seed). It is safe for concurrent use, deduplicates
// concurrent identical builds singleflight-style, and evicts
// least-recently-used collections beyond its byte budget. Plug one into
// Options.Index to share RR sets across solves, or let the HTTP server
// manage one internally.
type RRIndex = server.Index

// RRIndexStats is a snapshot of an RRIndex's hit/miss/eviction counters
// and occupancy.
type RRIndexStats = server.IndexStats

// ServeConfig configures the query-serving layer: the datasets served (the
// pre-registered graph-registry entries), the RR-index byte budget,
// per-request validation limits, the /v1/batch size cap, the async job
// worker pool (MaxJobs, MaxQueuedJobs, RetainedJobs), the /v1/graphs
// upload limits (MaxGraphs, MaxUploadBytes), and — via StateDir and
// SnapshotInterval — the persistent state layer that lets a restarted
// server warm-start with its RR-set cache and uploaded graphs intact
// (see ExampleServeConfig_persistentState).
type ServeConfig = server.Config

// Server is the query-serving layer: an http.Handler exposing the comic v1
// JSON API over a dynamic graph registry, with batched (/v1/batch) and
// asynchronous (/v1/jobs) query execution on top of the shared RR-set
// index. Beyond serving HTTP it supports in-process graph management:
// RegisterGraph and UnregisterGraph mirror the POST and DELETE /v1/graphs
// endpoints, GraphNames lists the registry, and — with
// ServeConfig.StateDir set — SaveState snapshots the RR-set index so a
// later NewServer with the same config restores it. Call Close when
// discarding a Server that isn't managed by Serve, to stop its job workers
// and snapshot loop.
type Server = server.Server

// NewServer validates cfg and returns a ready-to-serve query server with
// the configured datasets pre-registered. Use it instead of
// NewServeHandler when you need the management surface (RegisterGraph,
// UnregisterGraph, Index, Close) alongside http.Handler.
func NewServer(cfg ServeConfig) (*Server, error) { return server.New(cfg) }

// NewRRIndex returns an empty RR-set index bounded to maxBytes of resident
// RR-set data — exact: a collection keeps only its coverage index and
// reports its true footprint (<= 0 means unbounded).
func NewRRIndex(maxBytes int64) *RRIndex { return server.NewIndex(maxBytes) }

// NewServeHandler returns an http.Handler exposing the comic v1 JSON API
// (/v1/spread, /v1/boost, /v1/selfinfmax, /v1/compinfmax, /v1/batch,
// /v1/jobs, /v1/graphs, /healthz, /v1/stats) over the configured datasets.
// Solve responses are deterministic in the request's master seed and
// identical to the offline cmd/comic-seeds tool — warm or cold, alone or
// inside a batch or job.
func NewServeHandler(cfg ServeConfig) (http.Handler, error) {
	s, err := server.New(cfg)
	if err != nil {
		// An explicit nil: returning the typed-nil *server.Server would
		// give callers a non-nil http.Handler interface that panics on use.
		return nil, err
	}
	return s, nil
}

// Serve runs the query server on addr until ctx is canceled, then shuts
// down gracefully, draining in-flight requests.
func Serve(ctx context.Context, addr string, cfg ServeConfig) error {
	return server.Serve(ctx, addr, cfg)
}

// PowerLawGraph generates a Chung-Lu power-law graph (exponent, avgDeg) with
// weighted-cascade edge probabilities, the substrate of the paper's
// scalability experiments (Figure 7b).
func PowerLawGraph(n int, avgDeg, exponent float64, bidirect bool, seed uint64) *Graph {
	g := graph.PowerLaw(n, avgDeg, exponent, bidirect, rng.New(seed))
	graph.AssignWeightedCascade(g)
	return g
}

// Multi-item extension (§8): k propagating items with k·2^(k−1) GAPs.

// MultiGAPTable holds q_{i|S} for k items and every adopted subset S.
type MultiGAPTable = multi.GAPTable

// MultiSimulator runs k-item Com-IC diffusions.
type MultiSimulator = multi.Simulator

// NewMultiGAPTable returns a zero-filled GAP table for k items (k ≤ 16).
func NewMultiGAPTable(k int) (*MultiGAPTable, error) { return multi.NewGAPTable(k) }

// MultiFromPairGAP embeds two-item GAPs into a k=2 table (item 0 = A).
func MultiFromPairGAP(gap GAP) *MultiGAPTable { return multi.FromPairGAP(gap) }

// NewMultiSimulator returns a k-item simulator for g under the table.
func NewMultiSimulator(g *Graph, t *MultiGAPTable) *MultiSimulator {
	return multi.NewSimulator(g, t)
}
