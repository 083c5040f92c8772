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
	base
	visited marker
	queue   []int32
}

// NewIC returns an IC RR-set generator for g.
func NewIC(g *graph.Graph) *IC { return newIC(g, nil) }

// newIC is NewIC reading world (nil samples lazily); Clone passes its own.
func newIC(g *graph.Graph, world *core.World) *IC {
	return &IC{base: newBase(g, world), visited: newMarker(g.N())}
}

// Clone implements Generator.
func (ic *IC) Clone() Generator { return newIC(ic.Graph(), ic.World()) }

// Generate implements Generator.
func (ic *IC) Generate(root int32, r *rng.RNG, out *RRSet) {
	g := ic.Graph()
	ic.Begin(r)
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
			if !ic.visited.has(from[i]) && ic.EdgeLive(eids[i]) {
				ic.visited.mark(from[i])
				ic.queue = append(ic.queue, from[i])
			}
		}
	}
	ic.counters.Sets++
}
