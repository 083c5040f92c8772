package core

import (
	"fmt"

	"comic/internal/graph"
	"comic/internal/rng"
)

// World is an explicitly sampled possible world (§5.1): every random choice
// of a Com-IC diffusion is fixed up front, so cascades become deterministic.
// Worlds are the foundation of the submodularity analysis, the RR-set
// correctness tests, and common-random-number boost estimation.
type World struct {
	// EdgeLive[eid] is the live/blocked outcome of the single coin flip
	// each edge receives (Figure 2, step 1).
	EdgeLive []bool
	// AlphaA[v], AlphaB[v] are the node thresholds α_A^v, α_B^v drawn
	// uniformly from [0,1]; they encode every NLA decision including
	// reconsideration (generative rule 1 of §5.1).
	AlphaA []float64
	AlphaB []float64
	// EdgeRank[eid] orders informing in-neighbors for tie-breaking
	// (generative rule 2): lower rank is informed first. A per-edge uniform
	// rank induces a uniform permutation of any subset of in-neighbors.
	EdgeRank []float64
	// SeedFirst[v] is τ_v (generative rule 3): the item adopted first when
	// v seeds both A and B.
	SeedFirst []Item
}

// SampleWorld draws a complete possible world for g.
func SampleWorld(g *graph.Graph, r *rng.RNG) *World {
	w := &World{}
	w.Resample(g, r)
	return w
}

// Resample redraws w in place as a complete possible world for g, reusing
// its slices when they are large enough. It draws exactly what SampleWorld
// draws, in the same order, so w ends up equal to SampleWorld(g, r).
func (w *World) Resample(g *graph.Graph, r *rng.RNG) {
	n, m := g.N(), g.M()
	w.EdgeLive = resize(w.EdgeLive, m)
	w.EdgeRank = resize(w.EdgeRank, m)
	w.AlphaA = resize(w.AlphaA, n)
	w.AlphaB = resize(w.AlphaB, n)
	w.SeedFirst = resize(w.SeedFirst, n)
	for eid := 0; eid < m; eid++ {
		w.EdgeLive[eid] = r.Bernoulli(g.Prob(int32(eid)))
		w.EdgeRank[eid] = r.Float64()
	}
	for v := 0; v < n; v++ {
		w.AlphaA[v] = r.Float64()
		w.AlphaB[v] = r.Float64()
		if r.Bernoulli(0.5) {
			w.SeedFirst[v] = A
		} else {
			w.SeedFirst[v] = B
		}
	}
}

// MustFit panics unless w was sampled for g: g.M() entries in EdgeLive and
// EdgeRank, g.N() in AlphaA, AlphaB and SeedFirst. A world sampled for a
// larger graph would otherwise run silently on the wrong draws, and one
// sampled for a smaller graph would fail deep inside a cascade or an RR-set
// build worker with a bare index-out-of-range error.
func (w *World) MustFit(g *graph.Graph) {
	n, m := g.N(), g.M()
	if len(w.EdgeLive) != m || len(w.EdgeRank) != m ||
		len(w.AlphaA) != n || len(w.AlphaB) != n || len(w.SeedFirst) != n {
		panic(fmt.Sprintf("core: world was not sampled for this graph (%d edges, %d nodes): "+
			"EdgeLive/EdgeRank have %d/%d entries, AlphaA/AlphaB/SeedFirst have %d/%d/%d",
			m, n, len(w.EdgeLive), len(w.EdgeRank), len(w.AlphaA), len(w.AlphaB), len(w.SeedFirst)))
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short. Callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AlphaRange identifies which of the (at most three) equivalence-class
// ranges of §5.1 a threshold falls into, relative to the two relevant GAPs.
// Range 0 is [0, min(q1,q2)), range 1 is [min, max), range 2 is [max, 1].
func AlphaRange(alpha, q1, q2 float64) int {
	lo, hi := q1, q2
	if lo > hi {
		lo, hi = hi, lo
	}
	switch {
	case alpha < lo:
		return 0
	case alpha < hi:
		return 1
	default:
		return 2
	}
}

// EquivalentUnder reports whether two worlds belong to the same equivalence
// class for the given GAPs (§5.1): identical edge outcomes, identical α
// ranges, identical tie-break order, identical seed coins. The edge-rank
// comparison requires only equal induced orderings; for simplicity we demand
// equal ranks, which is sufficient (never necessary) and adequate for tests.
func (w *World) EquivalentUnder(other *World, q GAP) bool {
	if len(w.EdgeLive) != len(other.EdgeLive) || len(w.AlphaA) != len(other.AlphaA) {
		return false
	}
	for i := range w.EdgeLive {
		if w.EdgeLive[i] != other.EdgeLive[i] || w.EdgeRank[i] != other.EdgeRank[i] {
			return false
		}
	}
	for v := range w.AlphaA {
		if AlphaRange(w.AlphaA[v], q.QA0, q.QAB) != AlphaRange(other.AlphaA[v], q.QA0, q.QAB) {
			return false
		}
		if AlphaRange(w.AlphaB[v], q.QB0, q.QBA) != AlphaRange(other.AlphaB[v], q.QB0, q.QBA) {
			return false
		}
		if w.SeedFirst[v] != other.SeedFirst[v] {
			return false
		}
	}
	return true
}
