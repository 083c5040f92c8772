package rrset

import (
	"runtime"
	"sync"
	"time"

	"comic/internal/rng"
)

// Options configures GeneralTIM (Algorithm 1).
type Options struct {
	// Epsilon is the accuracy/efficiency knob ε of Eq. 3 (paper default 0.5).
	Epsilon float64
	// Ell sets the 1 − n^−ℓ success probability (paper default 1).
	Ell float64
	// FixedTheta, when positive, bypasses KPT estimation and generates
	// exactly this many RR sets. Used for controlled benchmarking.
	FixedTheta int
	// MaxTheta caps the RR-set budget to bound memory (default 2_000_000).
	MaxTheta int
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// RecordPostings attaches the per-set examination index (Postings) to
	// the built collection, enabling incremental Repair after graph edits.
	// Recording never changes the generated sets — like Workers it is
	// excluded from CollectionRequest.Key — but it is not cheap: postings
	// hold every edge coin a set drew, not just the set's nodes. They
	// measured 12× the collection's own bytes on the Flixster stand-in at
	// scale 0.02, and ~400× on a 10⁵-node power-law graph, where
	// generation also ran 2.3× slower. Record only for a collection that
	// is about to be repaired.
	RecordPostings bool
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.5
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	if o.MaxTheta <= 0 {
		o.MaxTheta = 2_000_000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports what GeneralTIM did.
type Stats struct {
	Theta    int
	KPT      float64
	Lambda   float64
	Coverage float64 // fraction of RR sets covered by the selected seeds
	// SpreadEstimate is n·Coverage, the RR-based estimate of the objective
	// (σ_A for SelfInfMax, boost for CompInfMax).
	SpreadEstimate float64
	TotalNodes     int64 // Σ |R|
	TotalWidth     int64 // Σ ω(R)
	// Explored covers θ-generation only; ExploredKPT covers the KPT probing
	// phase. Keeping them apart is what makes Explored comparable to the
	// paper's EPT quantities (Lemmas 6 and 8), which are per-generated-set.
	Explored       Counters
	ExploredKPT    Counters
	KPTDuration    time.Duration
	GenDuration    time.Duration
	SelectDuration time.Duration
}

// Collect generates count RR sets in parallel. Set i is always produced
// from random stream i of seed by a clone of gen, so the output is
// deterministic and independent of worker count. Exploration counters from
// all clones are accumulated into gen's.
//
// Each returned RRSet owns its Nodes slice; BuildCollection instead packs
// the same sets into one flat arena (see Collection) and is what the
// serving path uses.
func Collect(gen Generator, count int, workers int, seed uint64) []RRSet {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	sets := make([]RRSet, count)
	if count == 0 {
		return sets
	}
	n := gen.N()
	clones := make([]Generator, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := gen.Clone()
			clones[w] = cl
			var r rng.RNG
			for i := w; i < count; i += workers {
				r.ReseedStream(seed, uint64(i))
				root := int32(r.Intn(n))
				cl.Generate(root, &r, &sets[i])
			}
		}(w)
	}
	wg.Wait()
	for _, cl := range clones {
		gen.Counters().Add(cl.Counters())
	}
	return sets
}

// genResult holds the output of one generateSets run before assembly: per-
// position lengths, roots and widths, plus per-worker growable buffers with
// the node (and recorded posting) data of that worker's sets in stride
// order. Position j is the j-th requested set; scatterBufs maps positions to
// their final arena slots.
type genResult struct {
	workers int
	lens    []int32
	roots   []int32
	widths  []int64
	bufs    [][]int32
	// Recording output; nil unless requested and gen implements recordable.
	eLens []int32
	nLens []int32
	ebufs [][]uint32
	nbufs [][]int32
}

// generateSets is the strided worker pool shared by collectFlat (cold
// builds: idxs == nil, positions ARE global set indices) and Repair (idxs
// lists the dirty/top-up set indices to regenerate). The set at global index
// i is always drawn from random stream i of seed by a clone of gen, so a
// set's content depends only on (generator configuration, seed, i) — never
// on worker count or on whether a cold build or a repair produced it, which
// is exactly what makes repair bitwise equivalent to rebuild. Exploration
// counters from all clones are folded into gen's.
func generateSets(gen Generator, idxs []int, count, workers int, seed uint64, record bool) *genResult {
	gr := &genResult{
		workers: workers,
		lens:    make([]int32, count),
		roots:   make([]int32, count),
		widths:  make([]int64, count),
		bufs:    make([][]int32, workers),
	}
	if record {
		if _, ok := gen.(recordable); ok {
			gr.eLens = make([]int32, count)
			gr.nLens = make([]int32, count)
			gr.ebufs = make([][]uint32, workers)
			gr.nbufs = make([][]int32, workers)
		}
	}
	n := gen.N()
	clones := make([]Generator, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := gen.Clone()
			clones[w] = cl
			var rec *recorder
			if gr.eLens != nil {
				rec = newRecorder(n)
				cl.(recordable).setRecorder(rec)
			}
			var buf []int32
			var ebuf []uint32
			var nbuf []int32
			var set RRSet
			var r rng.RNG
			for j := w; j < count; j += workers {
				i := j
				if idxs != nil {
					i = idxs[j]
				}
				r.ReseedStream(seed, uint64(i))
				root := int32(r.Intn(n))
				if rec != nil {
					rec.beginSet()
				}
				cl.Generate(root, &r, &set)
				gr.lens[j] = int32(len(set.Nodes))
				gr.roots[j] = set.Root
				gr.widths[j] = set.Width
				buf = append(buf, set.Nodes...)
				if rec != nil {
					gr.eLens[j] = int32(len(rec.edges))
					gr.nLens[j] = int32(len(rec.nodes))
					ebuf = append(ebuf, rec.edges...)
					nbuf = append(nbuf, rec.nodes...)
				}
			}
			gr.bufs[w] = buf
			if gr.eLens != nil {
				gr.ebufs[w] = ebuf
				gr.nbufs[w] = nbuf
			}
		}(w)
	}
	wg.Wait()
	for _, cl := range clones {
		gen.Counters().Add(cl.Counters())
	}
	return gr
}

// scatterBufs copies each worker's stride-ordered buffer into the final
// arena: position j (global set index idxs[j], or j itself when idxs is nil)
// lands at dst[off[i]:off[i+1]]. The per-set segment lengths must match the
// lengths recorded at generation; workers write disjoint ranges.
func scatterBufs[T any](workers int, idxs []int, count int, bufs [][]T, dst []T, off []int64) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := bufs[w]
			pos := 0
			for j := w; j < count; j += workers {
				i := j
				if idxs != nil {
					i = idxs[j]
				}
				pos += copy(dst[off[i]:off[i+1]], buf[pos:])
			}
		}(w)
	}
	wg.Wait()
}

// collectFlat generates count RR sets directly into flat arena form: one
// shared node buffer plus per-set offsets, roots and widths. Set i is
// produced from random stream i of seed, exactly as Collect, so the packed
// sets are node-for-node identical to Collect's — only the memory layout
// differs. Generation allocates O(workers) growable buffers instead of one
// Nodes slice per set, and the final arena is sized exactly (len == cap),
// which is what lets Collection.Bytes account cache memory exactly. With
// record set (and a recordable generator), the examination trace of every
// set is packed the same way into a Postings index.
func collectFlat(gen Generator, count, workers int, seed uint64, record bool) (offsets []int64, nodes, roots []int32, widths []int64, post *Postings) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	offsets = make([]int64, count+1)
	roots = make([]int32, count)
	widths = make([]int64, count)
	if count == 0 {
		return offsets, nil, roots, widths, nil
	}
	gr := generateSets(gen, nil, count, workers, seed, record)
	roots, widths = gr.roots, gr.widths
	for j := 0; j < count; j++ {
		offsets[j+1] = offsets[j] + int64(gr.lens[j])
	}
	nodes = make([]int32, offsets[count])
	scatterBufs(gr.workers, nil, count, gr.bufs, nodes, offsets)
	if gr.eLens != nil {
		post = &Postings{
			EdgeOff: make([]int64, count+1),
			NodeOff: make([]int64, count+1),
		}
		for j := 0; j < count; j++ {
			post.EdgeOff[j+1] = post.EdgeOff[j] + int64(gr.eLens[j])
			post.NodeOff[j+1] = post.NodeOff[j] + int64(gr.nLens[j])
		}
		post.Edges = make([]uint32, post.EdgeOff[count])
		post.Nodes = make([]int32, post.NodeOff[count])
		scatterBufs(gr.workers, nil, count, gr.ebufs, post.Edges, post.EdgeOff)
		scatterBufs(gr.workers, nil, count, gr.nbufs, post.Nodes, post.NodeOff)
	}
	return offsets, nodes, roots, widths, post
}

// SelectMaxCoverage greedily picks k distinct nodes covering the maximum
// number of RR sets (Algorithm 1 lines 4-8), the standard max-coverage
// reduction, using CELF-style lazy evaluation. Returns the seeds and the
// number of covered sets. If every set is covered before k seeds are
// chosen, the remainder are the lowest-id unchosen nodes (zero marginal
// gain) so the result always has k seeds.
func SelectMaxCoverage(sets []RRSet, n, k int) ([]int32, int) {
	offsets := make([]int64, len(sets)+1)
	total := 0
	for i := range sets {
		total += len(sets[i].Nodes)
		offsets[i+1] = int64(total)
	}
	nodes := make([]int32, 0, total)
	for i := range sets {
		nodes = append(nodes, sets[i].Nodes...)
	}
	return celfCover(buildCoverIndex(offsets, nodes, n), offsets, nodes, k, nil)
}

// lazyKey packs one CELF priority-queue entry into a uint64 that orders by
// (cached marginal gain descending, node id ascending): the gain fills the
// high 32 bits and the bitwise complement of the node id the low 32, so the
// numerically largest key is the highest-gain, lowest-id entry — the same
// node the full argmax scan this queue replaced would have picked, ties
// included.
func lazyKey(gain int32, node int32) uint64 {
	return uint64(uint32(gain))<<32 | uint64(^uint32(node))
}

func lazyGain(key uint64) int32 { return int32(uint32(key >> 32)) }
func lazyNode(key uint64) int32 { return int32(^uint32(key)) }

// SelectMaxCoverageScan is the pre-CELF eager implementation: a full argmax
// scan over all n nodes per selected seed. Retained as the ground-truth
// oracle for TestSelectMaxCoverageMatchesScan and the differential harness
// in internal/rrset/ordertest; SelectMaxCoverage, SelectSeeds and
// SelectFromOrder must all match it seed-for-seed, ties included (lowest
// node id wins).
func SelectMaxCoverageScan(sets []RRSet, n, k int) ([]int32, int) {
	degree := make([]int32, n)
	for i := range sets {
		for _, v := range sets[i].Nodes {
			degree[v]++
		}
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int64(degree[v])
	}
	occ := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for i := range sets {
		for _, v := range sets[i].Nodes {
			occ[cursor[v]] = int32(i)
			cursor[v]++
		}
	}

	covered := make([]bool, len(sets))
	count := make([]int32, n)
	copy(count, degree)
	chosen := make([]bool, n)
	seeds := make([]int32, 0, k)
	totalCovered := 0
	for len(seeds) < k {
		best := int32(-1)
		for v := int32(0); v < int32(n); v++ {
			if chosen[v] {
				continue
			}
			if best < 0 || count[v] > count[best] {
				best = v
			}
		}
		if best < 0 {
			break // k > n; callers clamp, but stay safe
		}
		chosen[best] = true
		seeds = append(seeds, best)
		for _, si := range occ[offsets[best]:offsets[best+1]] {
			if covered[si] {
				continue
			}
			covered[si] = true
			totalCovered++
			for _, u := range sets[si].Nodes {
				count[u]--
			}
		}
	}
	return seeds, totalCovered
}

// GeneralTIM runs Algorithm 1 end to end: estimate a lower bound of OPT_k
// via KPT, derive θ from Eq. 3, generate θ RR sets, and select k seeds by
// greedy max coverage. The generator's RR-set semantics determine the
// objective: IC for VanillaIC, RR-SIM(+) for SelfInfMax, RR-CIM for
// CompInfMax. It is exactly BuildCollection followed by SelectSeeds; use
// those directly to reuse the collection across queries.
func GeneralTIM(gen Generator, m, k int, opts Options, seed uint64) ([]int32, *Stats) {
	col := BuildCollection(gen, m, k, opts, seed)
	return SelectSeeds(col, gen.N(), k)
}
