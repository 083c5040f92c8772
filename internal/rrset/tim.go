package rrset

import (
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

// collectCover generates count RR sets in parallel and inverts them into
// a coverage index over gen's nodes, returning it with the sets' total
// width. Set i is always produced from random stream i of seed by a clone
// of gen, so the output is deterministic and independent of the worker
// count. Exploration counters from all clones are accumulated into gen's.
// Each worker appends its sets' nodes to one growable buffer (sets w,
// w+workers, … in order), and the index is inverted from those buffers
// directly, so no set is ever kept on its own.
func collectCover(gen Generator, count, workers int, seed uint64) (cover coverIndex, totalWidth int64) {
	n := gen.N()
	workers = rng.Workers(workers, count)
	clones := make([]Generator, workers)
	bufs := make([][]int32, workers)
	widths := make([]int64, workers)
	lens := make([]int32, count) // disjoint strided writes, no races
	rng.Streams(workers, 0, count, seed, func(w int) func(int, *rng.RNG) {
		cl := gen.Clone()
		clones[w] = cl
		var set RRSet
		return func(i int, r *rng.RNG) {
			cl.Generate(int32(r.Intn(n)), r, &set)
			lens[i] = int32(len(set.Nodes))
			widths[w] += set.Width
			bufs[w] = append(bufs[w], set.Nodes...)
		}
	})
	addCounters(gen, clones)
	for _, w := range widths {
		totalWidth += w
	}
	return newCoverIndex(n, func(yield func([]int32) bool) {
		pos := make([]int, workers)
		for i, l := range lens {
			w := i % workers
			if !yield(bufs[w][pos[w] : pos[w]+int(l)]) {
				return
			}
			pos[w] += int(l)
		}
	}), totalWidth
}
