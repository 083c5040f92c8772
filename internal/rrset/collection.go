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
// The sets live in a flat arena: one shared node buffer plus per-set
// offsets, roots and widths, instead of θ separately allocated slices. That
// keeps generation garbage to O(workers) buffers, makes Bytes exact (every
// backing array is reachable from here and sized len == cap), and gives
// selection cache-friendly sequential scans. Access sets through Len,
// NodesOf, Root, Width, or the Set view — the arena layout is not part of
// the API.
type Collection struct {
	offsets []int64 // set i's nodes are nodes[offsets[i]:offsets[i+1]]
	nodes   []int32 // node arena, exactly TotalNodes long
	roots   []int32
	widths  []int64

	// cover is the packed inverted coverage index (node -> containing set
	// ids), built once per collection on top of the arena buffers so every
	// selection reuses it. nil only on hand-assembled
	// collections; selection then builds an ephemeral one (coverFor).
	cover *coverIndex

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
func (c *Collection) Len() int { return len(c.roots) }

// NodesOf returns set i's nodes as a view into the shared arena. The slice
// must not be mutated or appended to.
func (c *Collection) NodesOf(i int) []int32 {
	return c.nodes[c.offsets[i]:c.offsets[i+1]:c.offsets[i+1]]
}

// Root returns set i's root node.
func (c *Collection) Root(i int) int32 { return c.roots[i] }

// Width returns ω(R_i), the number of edges pointing into set i's nodes.
func (c *Collection) Width(i int) int64 { return c.widths[i] }

// Set returns an RRSet view of set i. Nodes aliases the shared arena and
// must not be mutated.
func (c *Collection) Set(i int) RRSet {
	return RRSet{Root: c.roots[i], Nodes: c.NodesOf(i), Width: c.widths[i]}
}

// Bytes returns the exact resident memory of the collection — the struct,
// its four arena arrays, and the packed coverage index, all allocated with
// len == cap — the quantity an LRU cache budgets against. (The runtime
// rounds each backing array up to an allocation size class; for the
// multi-megabyte arenas the cache holds, that rounding is page-granular and
// far below 1%.)
func (c *Collection) Bytes() int64 {
	b := int64(unsafe.Sizeof(*c)) +
		8*int64(cap(c.offsets)) + 4*int64(cap(c.nodes)) +
		4*int64(cap(c.roots)) + 8*int64(cap(c.widths))
	if c.cover != nil {
		b += c.cover.bytes()
	}
	return b
}

// BuildCollection runs the generation half of GeneralTIM (Algorithm 1 lines
// 1-3): estimate KPT in parallel, derive θ from Eq. 3 (unless
// opts.FixedTheta is set), and generate θ RR sets in parallel into the
// collection's arena. The result is deterministic in (generator
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
	col.offsets, col.nodes, col.roots, col.widths = collectFlat(gen, theta, opts.Workers, seed)
	//comic:timing reported phase duration; never feeds seed selection
	col.GenDuration = time.Since(t1)
	col.TotalNodes = int64(len(col.nodes))
	for _, w := range col.widths {
		col.TotalWidth += w
	}
	col.Explored = *gen.Counters()
	col.Explored.Sub(&col.ExploredKPT)
	col.cover = buildCoverIndex(col.offsets, col.nodes, n)
	return col
}

// CollectionFromSets packs independently allocated RR sets (e.g. Collect's
// output, or hand-built test fixtures) into a collection in flat arena
// form, with the coverage index built for a graph of n nodes. The packed
// sets are node-for-node identical to the input; only the memory layout
// differs. Generation statistics (KPT, counters, durations) are zero — the
// serving path builds collections with BuildCollection instead.
func CollectionFromSets(sets []RRSet, n int) *Collection {
	col := &Collection{Theta: len(sets)}
	col.offsets = make([]int64, len(sets)+1)
	col.roots = make([]int32, len(sets))
	col.widths = make([]int64, len(sets))
	total := int64(0)
	for i := range sets {
		total += int64(len(sets[i].Nodes))
		col.offsets[i+1] = total
		col.roots[i] = sets[i].Root
		col.widths[i] = sets[i].Width
		col.TotalWidth += sets[i].Width
	}
	col.nodes = make([]int32, total)
	for i := range sets {
		copy(col.nodes[col.offsets[i]:col.offsets[i+1]], sets[i].Nodes)
	}
	col.TotalNodes = total
	col.cover = buildCoverIndex(col.offsets, col.nodes, n)
	return col
}

// SelectSeeds runs the selection half of GeneralTIM (CELF lazy-greedy max
// coverage, Algorithm 1 lines 4-8) over a prebuilt collection. It never
// mutates col, so many queries may select from one shared collection
// concurrently.
func SelectSeeds(col *Collection, n, k int) ([]int32, *Stats) {
	if k > n {
		k = n
	}
	st := &Stats{
		Theta:       col.Theta,
		KPT:         col.KPT,
		Lambda:      col.Lambda,
		TotalNodes:  col.TotalNodes,
		TotalWidth:  col.TotalWidth,
		Explored:    col.Explored,
		ExploredKPT: col.ExploredKPT,
		KPTDuration: col.KPTDuration,
		GenDuration: col.GenDuration,
	}
	//comic:timing reported phase duration; never feeds seed selection
	t := time.Now()
	seeds, covered := celfCover(col.coverFor(n), col.offsets, col.nodes, k)
	//comic:timing reported phase duration; never feeds seed selection
	st.SelectDuration = time.Since(t)
	if col.Len() > 0 {
		st.Coverage = float64(covered) / float64(col.Len())
	}
	st.SpreadEstimate = float64(n) * st.Coverage
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
