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
	simPasses
}

// simPasses holds what RR-SIM and RR-SIM+ share: the configuration, the
// scratch, and the two passes both run, the forward B-labeling (labelB)
// and the backward A-relay BFS that draws the set (relayA).
type simPasses struct {
	base
	gap      core.GAP
	seedsB   []int32
	bAdopted marker
	visited  marker
	queue    []int32
}

// NewSIM returns an RR-SIM generator. It rejects GAPs outside the algorithm's
// soundness region.
func NewSIM(g *graph.Graph, gap core.GAP, seedsB []int32) (*SIM, error) {
	if err := checkSIM(g, gap, seedsB); err != nil {
		return nil, err
	}
	return &SIM{newSIMPasses(g, gap, seedsB, nil)}, nil
}

// newSIMPasses returns the shared RR-SIM state for inputs checkSIM has
// accepted, reading world (nil samples lazily).
func newSIMPasses(g *graph.Graph, gap core.GAP, seedsB []int32, world *core.World) simPasses {
	return simPasses{
		base:     newBase(g, world),
		gap:      gap,
		seedsB:   append([]int32(nil), seedsB...),
		bAdopted: newMarker(g.N()),
		visited:  newMarker(g.N()),
	}
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

// clone returns fresh shared state with s's configuration and world.
func (s *simPasses) clone() simPasses {
	return newSIMPasses(s.Graph(), s.gap, s.seedsB, s.World())
}

// Clone implements Generator.
func (s *SIM) Clone() Generator { return &SIM{s.clone()} }

// Generate implements Generator.
func (s *SIM) Generate(root int32, r *rng.RNG, out *RRSet) {
	s.Begin(r)
	s.labelB(nil)
	s.relayA(root, out)
}

// labelB runs Phase II of Algorithm 2: mark every node that adopts B given
// the fixed B-seed set. Because q_{B|∅} = q_{B|A}, B's diffusion is
// independent of A (Lemma 3), so the label is exact. A non-nil scope
// confines the labeling to its nodes, B-seeds included; RR-SIM+ passes its
// first pass's T1 (Algorithm 3). Every B-path to a node of T1 lies entirely
// inside T1 (Lemma 7), so the labels relayA reads agree with RR-SIM's.
func (s *simPasses) labelB(scope *marker) {
	s.bAdopted.reset()
	s.queue = s.queue[:0]
	for _, v := range s.seedsB {
		if (scope == nil || scope.has(v)) && s.bAdopted.mark(v) {
			s.queue = append(s.queue, v)
		}
	}
	g := s.Graph()
	// Head-index BFS: popping via queue = queue[1:] would strand capacity
	// and reallocate the queue on every generation (see IC.Generate).
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		to, eids := g.OutNeighbors(u)
		for i := range to {
			v := to[i]
			if (scope != nil && !scope.has(v)) || s.bAdopted.has(v) {
				continue
			}
			s.counters.EdgesForward++
			if s.EdgeLive(eids[i]) && s.Alpha(v, core.B) <= s.gap.QB0 {
				s.bAdopted.mark(v)
				s.queue = append(s.queue, v)
			}
		}
	}
}

// relayA runs Phase III of Algorithm 2 on labelB's labels: a backward BFS
// from root that passes through every node that adopts A once informed of
// it, collecting RR(root) into out.
func (s *simPasses) relayA(root int32, out *RRSet) {
	g := s.Graph()
	out.Reset(root)
	s.visited.reset()
	s.queue = append(s.queue[:0], root)
	s.visited.mark(root)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		addNode(g, out, u)
		q := s.gap.QA0
		if s.bAdopted.has(u) {
			q = s.gap.QAB
		}
		if s.Alpha(u, core.A) > q {
			// u can become A-adopted only as a seed itself; its
			// in-neighbors cannot push A through it (Case 1(ii)/2(ii)).
			continue
		}
		from, eids := g.InNeighbors(u)
		for i := range from {
			s.counters.EdgesBackward++
			if !s.visited.has(from[i]) && s.EdgeLive(eids[i]) {
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
