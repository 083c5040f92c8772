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
	s        sampler
	gap      core.GAP
	seedsB   []int32
	t1       marker
	bAdopted marker
	visited  marker
	queue    []int32
	counters Counters
}

// NewSIMPlus returns an RR-SIM+ generator under the same soundness
// conditions as NewSIM.
func NewSIMPlus(g *graph.Graph, gap core.GAP, seedsB []int32) (*SIMPlus, error) {
	if err := checkSIM(g, gap, seedsB); err != nil {
		return nil, err
	}
	return &SIMPlus{
		s:        newSampler(g),
		gap:      gap,
		seedsB:   append([]int32(nil), seedsB...),
		t1:       newMarker(g.N()),
		bAdopted: newMarker(g.N()),
		visited:  newMarker(g.N()),
	}, nil
}

// N implements Generator.
func (s *SIMPlus) N() int { return s.s.g.N() }

// SetWorld implements Generator.
func (s *SIMPlus) SetWorld(w *core.World) { s.s.world = w }

// Counters implements Generator.
func (s *SIMPlus) Counters() *Counters { return &s.counters }

// Clone implements Generator.
func (s *SIMPlus) Clone() Generator {
	c, err := NewSIMPlus(s.s.g, s.gap, s.seedsB)
	if err != nil {
		panic(err)
	}
	c.s.world = s.s.world
	return c
}

// Generate implements Generator.
func (s *SIMPlus) Generate(root int32, r *rng.RNG, out *RRSet) {
	g := s.s.g
	s.s.begin(r)

	// First backward BFS: T1 = all nodes with a live path to the root.
	// Following Algorithm 3 line 6, edges into already-visited nodes are
	// not tested here; the second pass samples them on demand.
	// All three passes walk their queues with a head index: popping via
	// queue = queue[1:] would strand capacity and reallocate the queue on
	// every generation (see IC.Generate).
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

	// Residual forward labeling from T1 ∩ S_B, restricted to T1. Every
	// B-path to a node of T1 lies entirely inside T1 (Lemma 7), so the
	// restriction loses nothing; edges skipped by the first pass are
	// sampled here on demand.
	s.bAdopted.reset()
	s.queue = s.queue[:0]
	for _, v := range s.seedsB {
		if s.t1.has(v) && s.bAdopted.mark(v) {
			s.queue = append(s.queue, v)
		}
	}
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		to, eids := g.OutNeighbors(u)
		for i := range to {
			v := to[i]
			if !s.t1.has(v) || s.bAdopted.has(v) {
				continue
			}
			s.counters.EdgesForward++
			if s.s.edgeLive(eids[i]) && s.s.alphaB(v) <= s.gap.QB0 {
				s.bAdopted.mark(v)
				s.queue = append(s.queue, v)
			}
		}
	}

	// Second backward BFS: identical to RR-SIM Phase III.
	out.Reset(root)
	s.visited.reset()
	s.queue = append(s.queue[:0], root)
	s.visited.mark(root)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		addNode(g, out, u)
		var relays bool
		if s.bAdopted.has(u) {
			relays = s.s.alphaA(u) <= s.gap.QAB
		} else {
			relays = s.s.alphaA(u) <= s.gap.QA0
		}
		if !relays {
			continue
		}
		from, eids := g.InNeighbors(u)
		for i := range from {
			s.counters.EdgesBackward++
			if !s.visited.has(from[i]) && s.s.edgeLive(eids[i]) {
				s.visited.mark(from[i])
				s.queue = append(s.queue, from[i])
			}
		}
	}
	s.counters.Sets++
	if len(out.Nodes) == 0 {
		s.counters.EmptySets++
	}
}
