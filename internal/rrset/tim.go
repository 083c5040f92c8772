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

// Stats reports one selection: the build statistics of the collection it
// ran over, and what it found.
type Stats struct {
	BuildStats
	Coverage float64 // fraction of RR sets covered by the selected seeds
	// SpreadEstimate is n·Coverage, the RR-based estimate of the objective
	// (σ_A for SelfInfMax, boost for CompInfMax).
	SpreadEstimate float64
	SelectDuration time.Duration
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

// collectFlat generates count RR sets in parallel directly into flat arena
// form: one shared node buffer plus per-set offsets, roots and widths. Set
// i is always produced from random stream i of seed by a clone of gen, so
// the output is deterministic and independent of the worker count.
// Exploration counters from all clones are accumulated into gen's.
// Generation allocates O(workers) growable buffers instead of one Nodes
// slice per set, and the final arena is sized exactly (len == cap), which
// is what lets Collection.Bytes account cache memory exactly.
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
