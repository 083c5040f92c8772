package rrset

import (
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
	sets := make([]RRSet, count)
	n := gen.N()
	clones := make([]Generator, rng.Workers(workers, count))
	rng.Streams(workers, 0, count, seed, func(w int) func(int, *rng.RNG) {
		cl := gen.Clone()
		clones[w] = cl
		return func(i int, r *rng.RNG) {
			cl.Generate(int32(r.Intn(n)), r, &sets[i])
		}
	})
	addCounters(gen, clones)
	return sets
}

// addCounters folds the exploration counters of a batch's worker clones
// (nil for a worker that never ran) into gen's.
func addCounters(gen Generator, clones []Generator) {
	for _, cl := range clones {
		if cl != nil {
			gen.Counters().Add(cl.Counters())
		}
	}
}

// collectFlat generates count RR sets directly into flat arena form: one
// shared node buffer plus per-set offsets, roots and widths. Set i is
// produced from random stream i of seed, exactly as Collect, so the packed
// sets are node-for-node identical to Collect's — only the memory layout
// differs. Generation allocates O(workers) growable buffers instead of one
// Nodes slice per set, and the final arena is sized exactly (len == cap),
// which is what lets Collection.Bytes account cache memory exactly.
func collectFlat(gen Generator, count, workers int, seed uint64) (offsets []int64, nodes, roots []int32, widths []int64) {
	offsets = make([]int64, count+1)
	roots = make([]int32, count)
	widths = make([]int64, count)
	if count == 0 {
		return offsets, nil, roots, widths
	}
	n := gen.N()
	workers = rng.Workers(workers, count)
	clones := make([]Generator, workers)
	bufs := make([][]int32, workers)
	lens := make([]int32, count) // disjoint strided writes, no races
	rng.Streams(workers, 0, count, seed, func(w int) func(int, *rng.RNG) {
		cl := gen.Clone()
		clones[w] = cl
		var set RRSet
		return func(i int, r *rng.RNG) {
			cl.Generate(int32(r.Intn(n)), r, &set)
			lens[i] = int32(len(set.Nodes))
			roots[i] = set.Root
			widths[i] = set.Width
			bufs[w] = append(bufs[w], set.Nodes...)
		}
	})
	addCounters(gen, clones)
	for i := 0; i < count; i++ {
		offsets[i+1] = offsets[i] + int64(lens[i])
	}
	nodes = make([]int32, offsets[count])
	// Scatter each worker's buffer to the arena; worker w's buffer holds
	// sets w, w+workers, ... contiguously in generation order.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := bufs[w]
			pos := 0
			for i := w; i < count; i += workers {
				pos += copy(nodes[offsets[i]:offsets[i+1]], buf[pos:])
			}
		}(w)
	}
	wg.Wait()
	return offsets, nodes, roots, widths
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
	return celfCover(buildCoverIndex(offsets, nodes, n), offsets, nodes, k)
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
// in internal/rrset/ordertest; SelectMaxCoverage and SelectSeeds must
// both match it seed-for-seed, ties included (lowest node id wins).
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
