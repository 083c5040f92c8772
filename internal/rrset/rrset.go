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

// base is embedded by every generator: the possible world its draws come
// from (whose SetWorld implements Generator's), its exploration counters,
// and the Generator methods that need nothing else.
type base struct {
	core.Draws
	counters Counters
}

// newBase returns a generator base on g that reads world (nil draws
// lazily).
func newBase(g *graph.Graph, world *core.World) base {
	b := base{Draws: core.NewDraws(g, 2)}
	b.SetWorld(world)
	return b
}

// N implements Generator.
func (b *base) N() int { return b.Graph().N() }

// Counters implements Generator.
func (b *base) Counters() *Counters { return &b.counters }

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
