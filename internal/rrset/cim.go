package rrset

import (
	"fmt"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// Labels assigned by RR-CIM's Phase I forward labeling (Eq. 4). A-potential
// is bookkeeping only (not an NLA state): the node would adopt A if informed
// of it, but the information itself is gated on upstream suspended nodes
// adopting B. Ordering matters: promotion goes potential → suspended →
// adopted, rejected is terminal.
const (
	lblNone      uint8 = 0
	lblPotential uint8 = 1
	lblSuspended uint8 = 2
	lblAdopted   uint8 = 3
	lblRejected  uint8 = 4
)

// CIM generates RR sets for CompInfMax with the RR-CIM algorithm
// (Algorithm 4). A node u belongs to RR(v) iff v is not A-adopted when
// S_B = ∅ but becomes A-adopted when u is the only B seed. Sound when
// q_{A|∅} ≤ q_{A|B} and q_{B|∅} ≤ q_{B|A} = 1 (Theorem 8); the sandwich
// upper bound of §6.4 raises q_{B|A} to 1 for general Q+.
type CIM struct {
	base
	gap    core.GAP
	seedsA []int32

	label      []uint8
	labelStamp []uint32
	labelEpoch uint32

	pvisited marker // primary backward search
	svisited marker // case-1 secondary searches (shared per Generate)
	sf       marker // case-4 forward scope
	sb       marker // case-4 backward scope
	inR      marker

	queue  []int32
	squeue []int32
}

// NewCIM returns an RR-CIM generator. It rejects GAPs outside the
// algorithm's soundness region (Theorem 8).
func NewCIM(g *graph.Graph, gap core.GAP, seedsA []int32) (*CIM, error) {
	if err := gap.Validate(); err != nil {
		return nil, err
	}
	if gap.QA0 > gap.QAB || gap.QB0 > gap.QBA {
		return nil, fmt.Errorf("rrset: RR-CIM requires mutual complementarity Q+, got %+v", gap)
	}
	if gap.QBA != 1 {
		return nil, fmt.Errorf("rrset: RR-CIM requires q_B|A = 1 (Theorem 8), got %v", gap.QBA)
	}
	if err := checkSeedRange(seedsA, g.N()); err != nil {
		return nil, err
	}
	return newCIM(g, gap, seedsA, nil), nil
}

// newCIM is NewCIM for inputs it has accepted, reading world (nil samples
// lazily); Clone passes its own.
func newCIM(g *graph.Graph, gap core.GAP, seedsA []int32, world *core.World) *CIM {
	n := g.N()
	return &CIM{
		base:       newBase(g, world),
		gap:        gap,
		seedsA:     append([]int32(nil), seedsA...),
		label:      make([]uint8, n),
		labelStamp: make([]uint32, n),
		pvisited:   newMarker(n),
		svisited:   newMarker(n),
		sf:         newMarker(n),
		sb:         newMarker(n),
		inR:        newMarker(n),
	}
}

// Clone implements Generator.
func (c *CIM) Clone() Generator { return newCIM(c.s.g, c.gap, c.seedsA, c.s.world) }

func (c *CIM) labelOf(v int32) uint8 {
	if c.labelStamp[v] != c.labelEpoch {
		return lblNone
	}
	return c.label[v]
}

func (c *CIM) setLabel(v int32, l uint8) {
	c.labelStamp[v] = c.labelEpoch
	c.label[v] = l
}

// abDiffusible reports whether v adopts both items when informed of both
// (§6.3): α_A ≤ q_{A|∅}, or α_A ∈ (q_{A|∅}, q_{A|B}] with α_B ≤ q_{B|∅}.
func (c *CIM) abDiffusible(v int32) bool {
	aa := c.s.alphaA(v)
	if aa <= c.gap.QA0 {
		return true
	}
	return aa <= c.gap.QAB && c.s.alphaB(v) <= c.gap.QB0
}

// bDiffusible reports whether v adopts B when informed of it: α_B ≤ q_{B|∅}
// or v is A-adopted (q_{B|A} = 1).
func (c *CIM) bDiffusible(v int32) bool {
	return c.s.alphaB(v) <= c.gap.QB0 || c.labelOf(v) == lblAdopted
}

// forwardLabel runs Phase I: BFS from S_A assigning the Eq. 4 labels, with
// promotion re-enqueueing (an A-potential node reached later by an
// A-adopted in-neighbor upgrades to suspended or adopted and is explored
// again).
func (c *CIM) forwardLabel() {
	c.labelEpoch++
	if c.labelEpoch == 0 {
		for i := range c.labelStamp {
			c.labelStamp[i] = 0
		}
		c.labelEpoch = 1
	}
	g := c.s.g
	c.queue = c.queue[:0]
	for _, v := range c.seedsA {
		if c.labelOf(v) != lblAdopted {
			c.setLabel(v, lblAdopted)
			c.queue = append(c.queue, v)
		}
	}
	// Head-index BFS here and in every queue below: popping via
	// queue = queue[1:] would strand capacity and reallocate the queue on
	// every generation (see IC.Generate).
	for head := 0; head < len(c.queue); head++ {
		u := c.queue[head]
		lu := c.labelOf(u)
		to, eids := g.OutNeighbors(u)
		for i := range to {
			v := to[i]
			c.counters.EdgesForward++
			if !c.s.edgeLive(eids[i]) {
				continue
			}
			if c.s.alphaA(v) > c.gap.QAB {
				if c.labelOf(v) == lblNone {
					c.setLabel(v, lblRejected)
				}
				continue
			}
			var cand uint8
			if lu == lblAdopted {
				if c.s.alphaA(v) <= c.gap.QA0 {
					cand = lblAdopted
				} else {
					cand = lblSuspended
				}
			} else {
				cand = lblPotential
			}
			if cur := c.labelOf(v); cand > cur && cur != lblRejected {
				c.setLabel(v, cand)
				c.queue = append(c.queue, v)
			}
		}
	}
}

// addR inserts v into the RR set if not already present.
func (c *CIM) addR(out *RRSet, v int32) {
	if c.inR.mark(v) {
		addNode(c.s.g, out, v)
	}
}

// secondaryBackwardB implements the Case 1 secondary search: every node that
// can deliver B to u through live edges and B-diffusible intermediates is a
// valid B seed for the root, so it joins R. Non-B-diffusible nodes join R
// (they can seed B themselves) but are not expanded.
func (c *CIM) secondaryBackwardB(u int32, out *RRSet) {
	g := c.s.g
	c.squeue = append(c.squeue[:0], u)
	c.svisited.mark(u)
	for head := 0; head < len(c.squeue); head++ {
		x := c.squeue[head]
		from, eids := g.InNeighbors(x)
		for i := range from {
			w := from[i]
			c.counters.EdgesSecondary++
			if !c.s.edgeLive(eids[i]) {
				continue
			}
			if !c.svisited.mark(w) {
				continue
			}
			c.addR(out, w)
			if c.bDiffusible(w) {
				c.squeue = append(c.squeue, w)
			}
		}
	}
}

// case4 implements the special treatment of a primary node u that is
// A-potential but not AB-diffusible: u itself qualifies as a B seed iff it
// can reach an A-suspended, AB-diffusible node u0 through B-diffusible nodes
// (forward set Sf) such that u0 reaches back to u through AB-diffusible
// A-labeled nodes (backward set Sb) — the zig-zag of Figure 3.
func (c *CIM) case4(u int32) bool {
	g := c.s.g
	// Forward scope: B-diffusible reachability from u (terminals included).
	c.sf.reset()
	c.squeue = append(c.squeue[:0], u)
	c.sf.mark(u)
	for head := 0; head < len(c.squeue); head++ {
		x := c.squeue[head]
		to, eids := g.OutNeighbors(x)
		for i := range to {
			y := to[i]
			c.counters.EdgesSecondary++
			if !c.s.edgeLive(eids[i]) {
				continue
			}
			if !c.sf.mark(y) {
				continue
			}
			if c.bDiffusible(y) {
				c.squeue = append(c.squeue, y)
			}
		}
	}
	// Backward scope: AB-diffusible, A-labeled reachability to u.
	c.sb.reset()
	c.squeue = append(c.squeue[:0], u)
	c.sb.mark(u)
	found := false
	for head := 0; head < len(c.squeue) && !found; head++ {
		x := c.squeue[head]
		from, eids := g.InNeighbors(x)
		for i := range from {
			w := from[i]
			c.counters.EdgesSecondary++
			if !c.s.edgeLive(eids[i]) {
				continue
			}
			if c.sb.has(w) {
				continue
			}
			lw := c.labelOf(w)
			if lw != lblAdopted && lw != lblSuspended && lw != lblPotential {
				continue
			}
			if !c.abDiffusible(w) {
				continue
			}
			c.sb.mark(w)
			if lw == lblSuspended && c.sf.has(w) {
				found = true
				break
			}
			c.squeue = append(c.squeue, w)
		}
	}
	return found
}

// Generate implements Generator.
func (c *CIM) Generate(root int32, r *rng.RNG, out *RRSet) {
	g := c.s.g
	c.s.begin(r)
	c.forwardLabel()
	out.Reset(root)
	c.counters.Sets++

	if l := c.labelOf(root); l != lblSuspended && l != lblPotential {
		// A-adopted roots need no boost; rejected/unreachable roots can
		// never be boosted (Algorithm 4 lines 2-3).
		c.counters.EmptySets++
		return
	}

	c.pvisited.reset()
	c.svisited.reset()
	c.inR.reset()
	c.queue = append(c.queue[:0], root)
	c.pvisited.mark(root)
	for head := 0; head < len(c.queue); head++ {
		u := c.queue[head]
		switch c.labelOf(u) {
		case lblSuspended:
			c.addR(out, u)
			if c.abDiffusible(u) {
				c.secondaryBackwardB(u, out) // Case 1
			}
			// Case 2 (not AB-diffusible): u joins R alone; the primary
			// search does not continue past a suspended node.
		case lblPotential:
			if c.abDiffusible(u) {
				// Case 3: relay; explore in-neighbors.
				from, eids := g.InNeighbors(u)
				for i := range from {
					c.counters.EdgesBackward++
					if !c.pvisited.has(from[i]) && c.s.edgeLive(eids[i]) {
						c.pvisited.mark(from[i])
						c.queue = append(c.queue, from[i])
					}
				}
			} else if c.case4(u) {
				// Case 4: u can only matter as a B seed via the zig-zag.
				c.addR(out, u)
			}
		default:
			// Adopted, rejected or unlabeled nodes neither join R nor
			// relay the primary search.
		}
	}
	if len(out.Nodes) == 0 {
		c.counters.EmptySets++
	}
}
