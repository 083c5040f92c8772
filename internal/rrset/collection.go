package rrset

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"
	"unsafe"

	"comic/internal/core"
	"comic/internal/graph"
)

// Kind identifies one of the RR-set generation algorithms of §6.
type Kind string

const (
	// KindSIM is RR-SIM (Algorithm 2), for SelfInfMax.
	KindSIM Kind = "sim"
	// KindSIMPlus is RR-SIM+ (Algorithm 3), RR-SIM with the forward pass
	// pruned to the final set; identical output, less work.
	KindSIMPlus Kind = "sim+"
	// KindCIM is RR-CIM (Algorithm 4), for CompInfMax.
	KindCIM Kind = "cim"
	// KindIC is the classic single-item IC RR-set of the VanillaIC baseline.
	KindIC Kind = "ic"
)

// Collection is an immutable batch of RR sets together with the statistics
// of its generation: the expensive, reusable half of GeneralTIM. A
// Collection built once may be shared freely across goroutines — nothing in
// this package mutates it after BuildCollection returns.
//
// The only per-set data it keeps is its coverage index: for each node, the
// ascending ids of the sets that contain it. That is all greedy max
// coverage reads, so no set's node list, root or width is kept; their
// totals are in BuildStats. Both index arrays are sized len == cap, which
// makes Bytes exact.
type Collection struct {
	// cover is empty (nil off) only on the zero Collection, which selects
	// no seeds.
	cover coverIndex

	BuildStats
}

// BuildStats records how a collection was generated. Collection and Stats
// both embed it, so a selection reports its collection's build as is.
type BuildStats struct {
	// Theta is the RR-set budget that was generated (Eq. 3, or FixedTheta).
	Theta int
	// KPT is the estimated lower bound of OPT_k (0 when FixedTheta was set).
	KPT float64
	// Lambda is λ of Eq. 3 (0 when FixedTheta was set).
	Lambda float64
	// TotalNodes is Σ |R| over the sets; TotalWidth is Σ ω(R).
	TotalNodes, TotalWidth int64
	// Explored aggregates edge-exploration counters from θ-generation only;
	// ExploredKPT holds the KPT estimation phase's counters separately, so
	// Explored matches the paper's per-phase EPT quantities (Lemmas 6, 8).
	Explored    Counters
	ExploredKPT Counters
	// KPTDuration and GenDuration record where generation time went.
	KPTDuration, GenDuration time.Duration
}

// Len returns the number of RR sets in the collection (== Theta).
func (c *Collection) Len() int { return c.Theta }

// Bytes returns the exact resident memory of the collection — the struct
// and its coverage index's two arrays, 8·(n+1) bytes of per-node offsets
// and 4·TotalNodes bytes of set ids, allocated with len == cap — the
// quantity an LRU cache budgets against. (The runtime rounds each backing
// array up to an allocation size class; for the multi-megabyte indexes the
// cache holds, that rounding is page-granular and far below 1%.)
func (c *Collection) Bytes() int64 {
	return int64(unsafe.Sizeof(*c)) + c.cover.bytes()
}

// BuildCollection runs the generation half of GeneralTIM (Algorithm 1 lines
// 1-3): estimate KPT in parallel, derive θ from Eq. 3 (unless
// opts.FixedTheta is set), and generate θ RR sets in parallel into the
// collection's coverage index. The result is deterministic in (generator
// configuration, k, opts, seed) and independent of opts.Workers.
func BuildCollection(gen Generator, m, k int, opts Options, seed uint64) *Collection {
	opts = opts.withDefaults()
	n := gen.N()
	if k > n {
		k = n
	}
	col := &Collection{}

	theta := opts.FixedTheta
	if theta <= 0 {
		//comic:timing reported phase duration; never feeds seed selection
		t0 := time.Now()
		col.KPT = EstimateKPT(gen, m, k, opts.Ell, seed^0x5bf03635, opts.Workers)
		//comic:timing reported phase duration; never feeds seed selection
		col.KPTDuration = time.Since(t0)
		col.Lambda = Lambda(n, k, opts.Epsilon, opts.Ell)
		theta = Theta(col.Lambda, col.KPT, opts.MaxTheta)
		// Snapshot the probing counters now so the generation phase below
		// can be reported separately (gen keeps accumulating into the same
		// Counters across both phases).
		col.ExploredKPT = *gen.Counters()
	}
	col.Theta = theta

	//comic:timing reported phase duration; never feeds seed selection
	t1 := time.Now()
	col.cover, col.TotalWidth = collectCover(gen, theta, opts.Workers, seed)
	//comic:timing reported phase duration; never feeds seed selection
	col.GenDuration = time.Since(t1)
	col.TotalNodes = int64(len(col.cover.sets))
	col.Explored = *gen.Counters()
	col.Explored.Sub(&col.ExploredKPT)
	return col
}

// SelectSeeds runs the selection half of GeneralTIM (Algorithm 1 lines
// 4-8) over a built collection: CELF lazy-greedy max coverage picks k
// distinct nodes of the collection's graph covering the most RR sets. If
// every set is covered before k seeds are chosen, the rest are the
// lowest-id unchosen nodes (zero marginal gain), so there are min(k, n)
// seeds. It never mutates col, so many queries may select from one shared
// collection concurrently.
func SelectSeeds(col *Collection, k int) ([]int32, *Stats) {
	st := &Stats{BuildStats: col.BuildStats}
	if col.cover.off == nil {
		return nil, st
	}
	//comic:timing reported phase duration; never feeds seed selection
	t := time.Now()
	seeds, covered := celfCover(&col.cover, col.Len(), k)
	//comic:timing reported phase duration; never feeds seed selection
	st.SelectDuration = time.Since(t)
	if col.Len() > 0 {
		st.Coverage = float64(covered) / float64(col.Len())
	}
	st.SpreadEstimate = float64(col.cover.nodes()) * st.Coverage
	return seeds, st
}

// CollectionRequest fully describes one RR-set collection: which graph,
// which generation algorithm under which GAPs and opposite-item seeds, and
// the TIM budget parameters. Two requests with equal Key() always build
// byte-identical collections, which is what makes collections cacheable.
type CollectionRequest struct {
	// GraphID names the graph in cache keys. Requests on distinct Graph
	// instances that carry the same GraphID share cache entries, so an ID
	// must never be reused across different graphs. When empty, Key falls
	// back to the Graph pointer identity: collision-free as long as the
	// cache keeps the graph reachable while the entry is resident (a
	// recycled address would alias the key; internal/server.Index pins the
	// graph in each entry for exactly this reason), but cache hits then
	// require the very same *graph.Graph instance.
	GraphID string
	// Graph is the network the RR sets are drawn on.
	Graph *graph.Graph
	// Kind selects the generation algorithm.
	Kind Kind
	// GAP holds the (bound-transformed) adoption probabilities.
	GAP core.GAP
	// Opposite is the fixed seed set of the other item (S_B for RR-SIM(+),
	// S_A for RR-CIM; ignored by KindIC).
	Opposite []int32
	// K is the cardinality constraint driving θ via Eq. 3.
	K int
	// Opts carries the TIM budget knobs. Workers does not affect the
	// generated sets and is excluded from Key.
	Opts Options
	// Seed is the master seed of the deterministic generation streams.
	Seed uint64
}

// checkSeedRange rejects out-of-range seed ids at construction time, where
// they can still be an error; during parallel generation they would be a
// process-killing panic on a worker goroutine.
func checkSeedRange(seeds []int32, n int) error {
	for _, v := range seeds {
		if v < 0 || v >= int32(n) {
			return fmt.Errorf("rrset: seed node %d out of range [0,%d)", v, n)
		}
	}
	return nil
}

// NewGenerator constructs the generator the request describes.
func (req CollectionRequest) NewGenerator() (Generator, error) {
	switch req.Kind {
	case KindSIM:
		return NewSIM(req.Graph, req.GAP, req.Opposite)
	case KindSIMPlus:
		return NewSIMPlus(req.Graph, req.GAP, req.Opposite)
	case KindCIM:
		return NewCIM(req.Graph, req.GAP, req.Opposite)
	case KindIC:
		return NewIC(req.Graph), nil
	default:
		return nil, fmt.Errorf("rrset: unknown generator kind %q", req.Kind)
	}
}

// Build constructs the generator and generates the collection. This is the
// cache-miss path; caches call it once per distinct Key.
func (req CollectionRequest) Build() (*Collection, error) {
	gen, err := req.NewGenerator()
	if err != nil {
		return nil, err
	}
	return BuildCollection(gen, req.Graph.M(), req.K, req.Opts, req.Seed), nil
}

// Key returns a deterministic cache key covering every field that affects
// the generated sets: graph, algorithm, exact GAP bits, opposite seeds, and
// master seed, plus whichever budget parameters matter. opts.Workers is
// deliberately omitted (generation is worker-count independent), and so are
// k, Epsilon, Ell and MaxTheta when FixedTheta is set: with θ fixed they
// never reach generation (they only drive θ through KPT and Eq. 3), so e.g.
// a k-sweep over one configuration shares a single collection. The opposite
// set is digested with SHA-256: seeds arrive from untrusted clients, and a
// constructible collision would silently serve the wrong collection.
func (req CollectionRequest) Key() string {
	h := sha256.New()
	for _, v := range req.Opposite {
		var b [4]byte
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
		//comic:allow errlost hash.Hash.Write is documented to never return an error
		h.Write(b[:])
	}
	o := req.Opts.withDefaults()
	graphID := req.GraphID
	if graphID == "" {
		graphID = fmt.Sprintf("%p", req.Graph)
	}
	ft := o.FixedTheta
	if ft < 0 {
		ft = 0 // any value <= 0 means "derive theta"; don't fragment the key
	}
	k, eps, ell, mt := req.K, o.Epsilon, o.Ell, o.MaxTheta
	if ft > 0 {
		k, eps, ell, mt = 0, 0, 0, 0
	}
	return fmt.Sprintf("%s|%s|%x,%x,%x,%x|opp:%d:%x|k:%d|eps:%x|ell:%x|ft:%d|mt:%d|seed:%d",
		graphID, req.Kind,
		math.Float64bits(req.GAP.QA0), math.Float64bits(req.GAP.QAB),
		math.Float64bits(req.GAP.QB0), math.Float64bits(req.GAP.QBA),
		len(req.Opposite), h.Sum(nil),
		k,
		math.Float64bits(eps), math.Float64bits(ell),
		ft, mt,
		req.Seed)
}

// CollectionProvider supplies RR-set collections for requests. The zero
// provider is "build every time"; caches (internal/server.Index) implement
// this interface to share collections across queries.
type CollectionProvider interface {
	// Collection returns the collection for req, building it if needed.
	// Implementations must return collections that are safe for concurrent
	// read-only use.
	Collection(req CollectionRequest) (*Collection, error)
}

// Obtain resolves req through p, falling back to a direct Build when p is
// nil. Solvers call this so that configuring a provider never changes
// results, only where the collection comes from.
func Obtain(p CollectionProvider, req CollectionRequest) (*Collection, error) {
	if p == nil {
		return req.Build()
	}
	return p.Collection(req)
}
