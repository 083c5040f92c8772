package rrset

import (
	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// IC generates classic Independent Cascade RR sets (Borgs et al. [2],
// Tang et al. [24]): a plain backward BFS over live edges. It powers the
// VanillaIC baseline of §7.1, which ignores the NLA entirely.
type IC struct {
	s        sampler
	visited  marker
	queue    []int32
	counters Counters
}

// NewIC returns an IC RR-set generator for g.
func NewIC(g *graph.Graph) *IC {
	return &IC{s: newSampler(g), visited: newMarker(g.N())}
}

// N implements Generator.
func (ic *IC) N() int { return ic.s.g.N() }

// SetWorld implements Generator.
func (ic *IC) SetWorld(w *core.World) { ic.s.world = w }

// Counters implements Generator.
func (ic *IC) Counters() *Counters { return &ic.counters }

// Clone implements Generator.
func (ic *IC) Clone() Generator {
	c := NewIC(ic.s.g)
	c.s.world = ic.s.world
	return c
}

// Generate implements Generator.
func (ic *IC) Generate(root int32, r *rng.RNG, out *RRSet) {
	g := ic.s.g
	ic.s.begin(r)
	ic.visited.reset()
	out.Reset(root)
	// BFS with a head index rather than popping via queue = queue[1:]:
	// re-slicing would strand the backing array's capacity behind the head,
	// forcing every generation to grow a fresh queue (the generators are
	// reused across θ sets, so retained capacity amortizes to zero allocs).
	ic.queue = append(ic.queue[:0], root)
	ic.visited.mark(root)
	for head := 0; head < len(ic.queue); head++ {
		u := ic.queue[head]
		addNode(g, out, u)
		from, eids := g.InNeighbors(u)
		for i := range from {
			ic.counters.EdgesBackward++
			if !ic.visited.has(from[i]) && ic.s.edgeLive(eids[i]) {
				ic.visited.mark(from[i])
				ic.queue = append(ic.queue, from[i])
			}
		}
	}
	ic.counters.Sets++
}
