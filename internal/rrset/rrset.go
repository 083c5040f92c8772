// Package rrset implements the reverse-reachable-set machinery of §6 of the
// paper: general RR-sets (Definition 1) for the Com-IC model, the three
// generation algorithms RR-SIM (Algorithm 2), RR-SIM+ (Algorithm 3) and
// RR-CIM (Algorithm 4), the classic IC RR-sets used by the VanillaIC
// baseline, and GeneralTIM (Algorithm 1) in its two halves: BuildCollection
// estimates KPT, derives θ (Eq. 3, [24]) and draws θ RR sets; SelectSeeds
// runs greedy max coverage over the result.
package rrset

import (
	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// RRSet is one reverse-reachable set: the root plus every node whose
// singleton seed set would activate the root in the sampled possible world.
type RRSet struct {
	Root  int32
	Nodes []int32
	// Width is ω(R): the number of graph edges pointing into nodes of R,
	// the quantity driving TIM's KPT estimator.
	Width int64
}

// Reset clears the set for reuse.
func (s *RRSet) Reset(root int32) {
	s.Root = root
	s.Nodes = s.Nodes[:0]
	s.Width = 0
}

// Counters accumulates the edge-exploration statistics that the paper's
// complexity analysis is expressed in (EPT_F, EPT_B, EPT_B1, EPT_B2,
// EPT_BS, EPT_BO; Lemmas 6 and 8).
type Counters struct {
	// EdgesForward counts edges examined by forward labeling phases.
	EdgesForward int64
	// EdgesBackward counts edges examined by the (final) backward BFS.
	EdgesBackward int64
	// EdgesBackwardFirst counts edges examined by RR-SIM+'s first pass.
	EdgesBackwardFirst int64
	// EdgesSecondary counts edges examined by RR-CIM secondary searches.
	EdgesSecondary int64
	// Sets counts generated RR sets; EmptySets those that came out empty.
	Sets      int64
	EmptySets int64
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.EdgesForward += other.EdgesForward
	c.EdgesBackward += other.EdgesBackward
	c.EdgesBackwardFirst += other.EdgesBackwardFirst
	c.EdgesSecondary += other.EdgesSecondary
	c.Sets += other.Sets
	c.EmptySets += other.EmptySets
}

// Sub removes other from c. BuildCollection uses it to separate the
// generation phase's counters from the KPT-probing snapshot taken earlier
// on the same accumulating generator.
func (c *Counters) Sub(other *Counters) {
	c.EdgesForward -= other.EdgesForward
	c.EdgesBackward -= other.EdgesBackward
	c.EdgesBackwardFirst -= other.EdgesBackwardFirst
	c.EdgesSecondary -= other.EdgesSecondary
	c.Sets -= other.Sets
	c.EmptySets -= other.EmptySets
}

// Generator produces random RR sets per Definition 1. Implementations are
// not safe for concurrent use; Clone gives each worker its own instance.
type Generator interface {
	// N returns the number of nodes (roots are sampled from [0, N)).
	N() int
	// Generate fills out with the RR set of the given root, sampling a
	// fresh possible world lazily from r (or reading the injected world).
	Generate(root int32, r *rng.RNG, out *RRSet)
	// Clone returns an independent generator with the same configuration.
	Clone() Generator
	// SetWorld injects an explicit possible world (nil restores lazy
	// sampling). Used by correctness tests and common-random-number
	// experiments.
	SetWorld(w *core.World)
	// Counters exposes this instance's exploration statistics.
	Counters() *Counters
}

// base is embedded by every generator: the sampler its draws come from,
// its exploration counters, and the Generator methods that need nothing
// else.
type base struct {
	s        sampler
	counters Counters
}

// N implements Generator.
func (b *base) N() int { return b.s.g.N() }

// SetWorld implements Generator. Like core.Simulator.SetWorld it panics on
// a world sampled for another graph.
func (b *base) SetWorld(w *core.World) {
	if w != nil {
		w.MustFit(b.s.g)
	}
	b.s.world = w
}

// Counters implements Generator.
func (b *base) Counters() *Counters { return &b.counters }

// sampler provides lazily-sampled, per-generation-memoized randomness
// (edge coins and α thresholds), or world-injected values.
type sampler struct {
	g     *graph.Graph
	world *core.World
	r     *rng.RNG

	epoch uint32
	// eMemo packs each edge's memo word as epoch<<2 | state (state 1 live,
	// 2 blocked): the stamp check and the state read in edgeLive — the
	// hottest loads in RR-set generation — touch one cache line, not two
	// parallel arrays.
	eMemo   []uint32
	alA     []float64
	alAStmp []uint32
	alB     []float64
	alBStmp []uint32
}

// newBase returns a generator base on g that reads world (nil samples
// lazily).
func newBase(g *graph.Graph, world *core.World) base {
	return base{s: sampler{
		g:       g,
		world:   world,
		eMemo:   make([]uint32, g.M()),
		alA:     make([]float64, g.N()),
		alAStmp: make([]uint32, g.N()),
		alB:     make([]float64, g.N()),
		alBStmp: make([]uint32, g.N()),
	}}
}

// begin starts a fresh possible world for one RR-set generation.
func (s *sampler) begin(r *rng.RNG) {
	s.r = r
	s.epoch++
	if s.epoch == 1<<30 { // eMemo keeps 30 epoch bits; wrap and reset
		for i := range s.eMemo {
			s.eMemo[i] = 0
		}
		for i := range s.alAStmp {
			s.alAStmp[i] = 0
			s.alBStmp[i] = 0
		}
		s.epoch = 1
	}
}

func (s *sampler) edgeLive(eid int32) bool {
	if s.world != nil {
		return s.world.EdgeLive[eid]
	}
	w := s.eMemo[eid]
	if w>>2 != s.epoch {
		if s.r.Bernoulli(s.g.Prob(eid)) {
			w = s.epoch<<2 | 1
		} else {
			w = s.epoch<<2 | 2
		}
		s.eMemo[eid] = w
	}
	return w&3 == 1
}

func (s *sampler) alphaA(v int32) float64 {
	if s.world != nil {
		return s.world.AlphaA[v]
	}
	if s.alAStmp[v] != s.epoch {
		s.alAStmp[v] = s.epoch
		s.alA[v] = s.r.Float64()
	}
	return s.alA[v]
}

func (s *sampler) alphaB(v int32) float64 {
	if s.world != nil {
		return s.world.AlphaB[v]
	}
	if s.alBStmp[v] != s.epoch {
		s.alBStmp[v] = s.epoch
		s.alB[v] = s.r.Float64()
	}
	return s.alB[v]
}

// marker is an O(1)-reset visited set over node ids.
type marker struct {
	stamp []uint32
	epoch uint32
}

func newMarker(n int) marker {
	return marker{stamp: make([]uint32, n)}
}

func (m *marker) reset() {
	m.epoch++
	if m.epoch == 0 {
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.epoch = 1
	}
}

// mark marks v and reports whether it was previously unmarked.
func (m *marker) mark(v int32) bool {
	if m.stamp[v] == m.epoch {
		return false
	}
	m.stamp[v] = m.epoch
	return true
}

func (m *marker) has(v int32) bool { return m.stamp[v] == m.epoch }

// addNode appends v to the RR set, accounting its in-degree into Width.
func addNode(g *graph.Graph, out *RRSet, v int32) {
	out.Nodes = append(out.Nodes, v)
	out.Width += int64(g.InDegree(v))
}
