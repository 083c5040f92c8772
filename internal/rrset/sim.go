package rrset

import (
	"fmt"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// SIM generates RR sets for SelfInfMax with the RR-SIM algorithm
// (Algorithm 2): a forward labeling of B-adoptions from the fixed B-seed
// set, followed by a backward BFS from the root through nodes that would
// adopt A upon being informed. Sound in the one-way complementarity setting
// q_{A|∅} ≤ q_{A|B}, q_{B|∅} = q_{B|A} (Theorem 7); the sandwich bounds of
// §6.4 reduce general Q+ instances to this setting.
type SIM struct {
	s        sampler
	gap      core.GAP
	seedsB   []int32
	bAdopted marker
	visited  marker
	queue    []int32
	counters Counters
}

// NewSIM returns an RR-SIM generator. It rejects GAPs outside the algorithm's
// soundness region.
func NewSIM(g *graph.Graph, gap core.GAP, seedsB []int32) (*SIM, error) {
	if err := checkSIM(g, gap, seedsB); err != nil {
		return nil, err
	}
	return &SIM{
		s:        newSampler(g),
		gap:      gap,
		seedsB:   append([]int32(nil), seedsB...),
		bAdopted: newMarker(g.N()),
		visited:  newMarker(g.N()),
	}, nil
}

// checkSIM rejects the inputs RR-SIM and RR-SIM+ are unsound or undefined
// for: a GAP outside one-way complementarity, or a B-seed outside g.
func checkSIM(g *graph.Graph, gap core.GAP, seedsB []int32) error {
	if err := gap.Validate(); err != nil {
		return err
	}
	if gap.QB0 != gap.QBA {
		return fmt.Errorf("rrset: RR-SIM requires q_B|∅ = q_B|A (one-way complementarity), got %v vs %v", gap.QB0, gap.QBA)
	}
	if gap.QA0 > gap.QAB {
		return fmt.Errorf("rrset: RR-SIM requires q_A|∅ ≤ q_A|B, got %v > %v", gap.QA0, gap.QAB)
	}
	return checkSeedRange(seedsB, g.N())
}

// N implements Generator.
func (s *SIM) N() int { return s.s.g.N() }

// SetWorld implements Generator.
func (s *SIM) SetWorld(w *core.World) { s.s.world = w }

// Counters implements Generator.
func (s *SIM) Counters() *Counters { return &s.counters }

// Clone implements Generator.
func (s *SIM) Clone() Generator {
	c, err := NewSIM(s.s.g, s.gap, s.seedsB)
	if err != nil {
		panic(err) // validated at construction
	}
	c.s.world = s.s.world
	return c
}

// forwardLabelB runs Phase II of Algorithm 2: mark every node that adopts B
// given the fixed B-seed set. Because q_{B|∅} = q_{B|A}, B's diffusion is
// independent of A (Lemma 3), so the label is exact.
func (s *SIM) forwardLabelB() {
	s.bAdopted.reset()
	s.queue = s.queue[:0]
	for _, v := range s.seedsB {
		if s.bAdopted.mark(v) {
			s.queue = append(s.queue, v)
		}
	}
	g := s.s.g
	// Head-index BFS: popping via queue = queue[1:] would strand capacity
	// and reallocate the queue on every generation (see IC.Generate).
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		to, eids := g.OutNeighbors(u)
		for i := range to {
			v := to[i]
			if s.bAdopted.has(v) {
				continue
			}
			s.counters.EdgesForward++
			if s.s.edgeLive(eids[i]) && s.s.alphaB(v) <= s.gap.QB0 {
				s.bAdopted.mark(v)
				s.queue = append(s.queue, v)
			}
		}
	}
}

// relaysA reports whether node u, once informed of A, adopts it in the
// current possible world (the backward-BFS pass-through condition).
func (s *SIM) relaysA(u int32) bool {
	if s.bAdopted.has(u) {
		return s.s.alphaA(u) <= s.gap.QAB
	}
	return s.s.alphaA(u) <= s.gap.QA0
}

// Generate implements Generator.
func (s *SIM) Generate(root int32, r *rng.RNG, out *RRSet) {
	g := s.s.g
	s.s.begin(r)
	s.forwardLabelB()

	out.Reset(root)
	s.visited.reset()
	s.queue = append(s.queue[:0], root)
	s.visited.mark(root)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		addNode(g, out, u)
		if !s.relaysA(u) {
			// u can become A-adopted only as a seed itself; its
			// in-neighbors cannot push A through it (Case 1(ii)/2(ii)).
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
