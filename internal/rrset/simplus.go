package rrset

import (
	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// SIMPlus generates the same RR sets as SIM but with the RR-SIM+ algorithm
// (Algorithm 3): a first backward reachability pass from the root scopes the
// forward B-labeling to the nodes that can matter, skipping it entirely when
// no B-seed is backward-reachable. Lemma 7 proves the B labels agree with
// RR-SIM's, so the two generators are world-for-world identical.
type SIMPlus struct {
	simPasses
	t1 marker
}

// NewSIMPlus returns an RR-SIM+ generator under the same soundness
// conditions as NewSIM.
func NewSIMPlus(g *graph.Graph, gap core.GAP, seedsB []int32) (*SIMPlus, error) {
	if err := checkSIM(g, gap, seedsB); err != nil {
		return nil, err
	}
	return &SIMPlus{newSIMPasses(g, gap, seedsB, nil), newMarker(g.N())}, nil
}

// Clone implements Generator.
func (s *SIMPlus) Clone() Generator { return &SIMPlus{s.clone(), newMarker(s.N())} }

// Generate implements Generator.
func (s *SIMPlus) Generate(root int32, r *rng.RNG, out *RRSet) {
	g := s.s.g
	s.s.begin(r)

	// First backward BFS: T1 = all nodes with a live path to the root.
	// Following Algorithm 3 line 6, edges into already-visited nodes are
	// not tested here; labelB samples them on demand.
	s.t1.reset()
	s.queue = append(s.queue[:0], root)
	s.t1.mark(root)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		from, eids := g.InNeighbors(u)
		for i := range from {
			if s.t1.has(from[i]) {
				continue
			}
			s.counters.EdgesBackwardFirst++
			if s.s.edgeLive(eids[i]) {
				s.t1.mark(from[i])
				s.queue = append(s.queue, from[i])
			}
		}
	}

	s.labelB(&s.t1)
	s.relayA(root, out)
}
