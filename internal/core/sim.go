package core

import (
	"cmp"
	"fmt"
	"slices"

	"comic/internal/graph"
	"comic/internal/rng"
)

// Simulator runs Com-IC diffusions (Figure 2 of the paper) over a fixed
// graph and GAP set. A Simulator owns reusable, epoch-stamped scratch
// arrays, so a single allocation serves millions of Monte-Carlo runs; it is
// not safe for concurrent use — give each worker goroutine its own instance.
//
// Every random outcome (edge coin, node thresholds α, tie-break ranks,
// dual-seed coin) comes from the simulator's Draws, in one of two modes:
//
//   - Lazy mode (default): each outcome is drawn from the caller's RNG when
//     the run first needs it, which is exactly the
//     principle-of-deferred-decisions reading of the model.
//   - World mode (SetWorld): all outcomes come from an explicitly sampled
//     possible world (§5.1), making the cascade fully deterministic. Running
//     the same world with different seed sets implements the
//     common-random-number comparisons used in the submodularity analysis
//     and the RR-set correctness tests.
type Simulator struct {
	draws Draws
	gap   GAP

	// Epoch-stamped per-run node states.
	epoch      uint32
	stA, stB   []State
	stampState []uint32
	seqA, seqB []int32
	seedMark   []uint8
	stampSeed  []uint32

	cur, next []adoptEvent
	informs   []informEntry
	order     []uint64 // target<<32 | index into informs

	adoptedA, adoptedB []int32
	seqCounter         int32
	evCounter          int32
	countA, countB     int
	step               int32

	trace *Trace
}

type adoptEvent struct {
	node int32
	item Item
	seq  int32
}

type informEntry struct {
	target int32
	src    int32
	item   Item
	srcSeq int32
	rank   float64
}

// NewSimulator returns a Simulator for g under the given GAPs.
func NewSimulator(g *graph.Graph, gap GAP) *Simulator {
	if err := gap.Validate(); err != nil {
		panic(err)
	}
	n := g.N()
	return &Simulator{
		draws:      NewDraws(g, 2),
		gap:        gap,
		stA:        make([]State, n),
		stB:        make([]State, n),
		stampState: make([]uint32, n),
		seqA:       make([]int32, n),
		seqB:       make([]int32, n),
		seedMark:   make([]uint8, n),
		stampSeed:  make([]uint32, n),
	}
}

// GAP returns the simulator's global adoption probabilities.
func (s *Simulator) GAP() GAP { return s.gap }

// Graph returns the underlying graph.
func (s *Simulator) Graph() *graph.Graph { return s.draws.g }

// SetWorld switches the simulator to deterministic world mode (nil reverts
// to lazy mode). The world must have been sampled for the simulator's
// graph (World.MustFit panics otherwise).
func (s *Simulator) SetWorld(w *World) { s.draws.SetWorld(w) }

func (s *Simulator) bumpEpoch() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear the node stamps once every 2^32 runs
		clear(s.stampState)
		clear(s.stampSeed)
		s.epoch = 1
	}
}

func (s *Simulator) state(v int32, it Item) State {
	if s.stampState[v] != s.epoch {
		return Idle
	}
	if it == A {
		return s.stA[v]
	}
	return s.stB[v]
}

func (s *Simulator) setState(v int32, it Item, st State) {
	if s.stampState[v] != s.epoch {
		s.stampState[v] = s.epoch
		s.stA[v] = Idle
		s.stB[v] = Idle
	}
	if it == A {
		s.stA[v] = st
	} else {
		s.stB[v] = st
	}
}

// adopt transitions v to Adopted for item it, records bookkeeping, schedules
// propagation, and triggers reconsideration of the other item when v is
// other-suspended (Figure 2, step 4).
func (s *Simulator) adopt(v int32, it Item) {
	s.setState(v, it, Adopted)
	seq := s.seqCounter
	s.seqCounter++
	if it == A {
		s.seqA[v] = seq
		s.countA++
		s.adoptedA = append(s.adoptedA, v)
	} else {
		s.seqB[v] = seq
		s.countB++
		s.adoptedB = append(s.adoptedB, v)
	}
	s.next = append(s.next, adoptEvent{node: v, item: it, seq: seq})
	if s.trace != nil {
		s.trace.recordInform(v, it, s.step, s.nextEvent())
		s.trace.recordAdopt(v, it, s.step, seq, s.nextEvent())
	}
	other := it.Other()
	if s.state(v, other) == Suspended {
		// Reconsideration: the same α threshold that failed q_{X|∅}
		// is now compared against q_{X|Y}, reproducing ρ_X exactly.
		if s.draws.Alpha(v, other) <= s.gap.Q(other, true) {
			s.adopt(v, other)
		} else {
			s.setState(v, other, Rejected)
		}
	}
}

// processInform applies the NLA transition for one informing event
// (Figure 2, step 3; Figure 1).
func (s *Simulator) processInform(v int32, it Item) {
	if s.trace != nil {
		s.trace.recordInform(v, it, s.step, s.nextEvent())
	}
	if s.state(v, it) != Idle {
		return
	}
	otherAdopted := s.state(v, it.Other()) == Adopted
	if s.draws.Alpha(v, it) <= s.gap.Q(it, otherAdopted) {
		s.adopt(v, it)
		return
	}
	if otherAdopted {
		s.setState(v, it, Rejected)
	} else {
		s.setState(v, it, Suspended)
	}
}

// Run executes one diffusion from the given seed sets and returns the number
// of A-adopted and B-adopted nodes. r supplies randomness in lazy mode and
// may be nil in world mode. The adopted node lists remain readable through
// AdoptedA/AdoptedB until the next run.
func (s *Simulator) Run(seedsA, seedsB []int32, r *rng.RNG) (countA, countB int) {
	s.draws.Begin(r)
	s.bumpEpoch()
	s.countA, s.countB = 0, 0
	s.seqCounter = 0
	s.evCounter = 0
	s.step = 0
	s.cur = s.cur[:0]
	s.next = s.next[:0]
	s.adoptedA = s.adoptedA[:0]
	s.adoptedB = s.adoptedB[:0]

	// Step 0: seed adoption. Nodes seeding both items adopt in the order
	// given by the fair coin τ (world) or a fresh flip (lazy).
	for _, v := range seedsB {
		if s.stampSeed[v] != s.epoch {
			s.stampSeed[v] = s.epoch
			s.seedMark[v] = 0
		}
		s.seedMark[v] |= 2
	}
	for _, v := range seedsA {
		if s.stampSeed[v] != s.epoch {
			s.stampSeed[v] = s.epoch
			s.seedMark[v] = 0
		}
		if s.seedMark[v]&1 != 0 {
			continue // duplicate within seedsA
		}
		s.seedMark[v] |= 1
		if s.seedMark[v]&2 != 0 {
			first := s.draws.SeedFirst(v)
			s.adopt(v, first)
			s.adopt(v, first.Other())
			s.seedMark[v] |= 4 // dual handled
		} else {
			s.adopt(v, A)
		}
	}
	for _, v := range seedsB {
		if s.seedMark[v]&4 != 0 || s.state(v, B) == Adopted {
			continue // dual handled above or duplicate within seedsB
		}
		s.adopt(v, B)
	}

	for len(s.next) > 0 {
		s.cur, s.next = s.next, s.cur[:0]
		s.step++
		s.propagateStep()
	}
	return s.countA, s.countB
}

// SameRuns reports whether Run(a, seedsB, r) and Run(b, seedsB, r) must
// return the same counts and leave every node in the same final state: for
// every RNG state in lazy mode and every world in world mode, under any
// GAPs. Run reads its A-seeds
// through two things only: their set of nodes, and the order of the dual
// seeds among them (A-seeds that are also in seedsB). Step 0 draws one seed
// coin per dual seed, in A-seed order, and draws nothing for the other
// seeds; every later draw follows node order. So SameRuns is true when a
// and b hold the same nodes and list their dual seeds in the same order,
// each repeated seed counting where it first appears. It covers counts and
// final states only: AdoptedA, AdoptedB and a RunTrace's sequence numbers
// and event stamps may still list step 0's adoptions in another order.
// World mode never reads the order at all, so there a false SameRuns does
// not mean the runs differ.
func SameRuns(a, b, seedsB []int32) bool {
	setA, setB := slices.Clone(a), slices.Clone(b)
	slices.Sort(setA)
	slices.Sort(setB)
	if !slices.Equal(slices.Compact(setA), slices.Compact(setB)) {
		return false
	}
	sortedB := slices.Clone(seedsB)
	slices.Sort(sortedB)
	return slices.Equal(dualSeeds(a, sortedB), dualSeeds(b, sortedB))
}

// dualSeeds returns the nodes of seedsA that are also in sortedB, in order
// of first appearance in seedsA: the order Run draws their seed coins in.
func dualSeeds(seedsA, sortedB []int32) []int32 {
	var out []int32
	for _, v := range seedsA {
		if _, ok := slices.BinarySearch(sortedB, v); ok && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// propagateStep implements one global iteration of Figure 2: edge tests for
// everything adopted in the previous step, then tie-broken node tests.
func (s *Simulator) propagateStep() {
	s.informs = s.informs[:0]

	// Group the previous step's adoptions by node so that a node that
	// adopted both items shares one tie-break rank per out-edge and informs
	// in its own adoption order. Every sort here orders distinct entries
	// totally, so its result does not depend on the sort algorithm.
	slices.SortFunc(s.cur, func(a, b adoptEvent) int {
		if a.node != b.node {
			return cmp.Compare(a.node, b.node)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := 0; i < len(s.cur); {
		j := i + 1
		for j < len(s.cur) && s.cur[j].node == s.cur[i].node {
			j++
		}
		u := s.cur[i].node
		to, eids := s.draws.g.OutNeighbors(u)
		for e := range to {
			eid := eids[e]
			rank := s.draws.Rank(eid)
			if !s.draws.EdgeLive(eid) {
				continue
			}
			for _, ev := range s.cur[i:j] {
				s.informs = append(s.informs, informEntry{
					target: to[e], src: u, item: ev.item,
					srcSeq: ev.seq, rank: rank,
				})
			}
		}
		i = j
	}

	// Tie-breaking (Figure 2, step 2): within each target, informing
	// in-neighbors are ordered by rank (a uniform permutation); a neighbor
	// that adopted both items informs both in its adoption order. Informs
	// are ordered by (target, rank, src, srcSeq): one integer sort of
	// target<<32 | index groups them by target, and only runs of equal
	// target are then sorted by (rank, src, srcSeq).
	order := s.order[:0]
	for i := range s.informs {
		order = append(order, uint64(s.informs[i].target)<<32|uint64(i))
	}
	slices.Sort(order)
	informs := s.informs
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j]>>32 == order[i]>>32 {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(order[i:j], func(x, y uint64) int {
				a, b := &informs[uint32(x)], &informs[uint32(y)]
				if a.rank != b.rank {
					if a.rank < b.rank {
						return -1
					}
					return 1
				}
				if a.src != b.src {
					return cmp.Compare(a.src, b.src)
				}
				return cmp.Compare(a.srcSeq, b.srcSeq)
			})
		}
		for _, k := range order[i:j] {
			s.processInform(informs[uint32(k)].target, informs[uint32(k)].item)
		}
		i = j
	}
	s.order = order
}

// AdoptedA returns the nodes that adopted A in the most recent run. The
// slice is invalidated by the next run.
func (s *Simulator) AdoptedA() []int32 { return s.adoptedA }

// AdoptedB returns the nodes that adopted B in the most recent run.
func (s *Simulator) AdoptedB() []int32 { return s.adoptedB }

// StateOf returns v's final state for item it after the most recent run.
func (s *Simulator) StateOf(v int32, it Item) State { return s.state(v, it) }

// nextEvent returns the next globally-ordered event stamp for traces.
func (s *Simulator) nextEvent() int32 {
	ev := s.evCounter
	s.evCounter++
	return ev
}

// Trace is a full record of one diffusion: final states, first-inform and
// adoption times (in diffusion steps), global adoption sequence numbers, and
// totally-ordered event stamps (InformEv*/AdoptEv*) that let consumers
// reconstruct the exact interleaving of informs and adoptions — the ordering
// the action-log learner of §7.2 depends on.
type Trace struct {
	StateA, StateB          []State
	InformTimeA, AdoptTimeA []int32 // -1 when the event never happened
	InformTimeB, AdoptTimeB []int32
	AdoptSeqA, AdoptSeqB    []int32
	InformEvA, AdoptEvA     []int32 // -1 when the event never happened
	InformEvB, AdoptEvB     []int32
	CountA, CountB          int
}

func newTrace(n int) *Trace {
	t := &Trace{
		StateA:      make([]State, n),
		StateB:      make([]State, n),
		InformTimeA: make([]int32, n),
		AdoptTimeA:  make([]int32, n),
		InformTimeB: make([]int32, n),
		AdoptTimeB:  make([]int32, n),
		AdoptSeqA:   make([]int32, n),
		AdoptSeqB:   make([]int32, n),
		InformEvA:   make([]int32, n),
		AdoptEvA:    make([]int32, n),
		InformEvB:   make([]int32, n),
		AdoptEvB:    make([]int32, n),
	}
	for i := 0; i < n; i++ {
		t.InformTimeA[i] = -1
		t.AdoptTimeA[i] = -1
		t.InformTimeB[i] = -1
		t.AdoptTimeB[i] = -1
		t.AdoptSeqA[i] = -1
		t.AdoptSeqB[i] = -1
		t.InformEvA[i] = -1
		t.AdoptEvA[i] = -1
		t.InformEvB[i] = -1
		t.AdoptEvB[i] = -1
	}
	return t
}

func (t *Trace) recordInform(v int32, it Item, step, ev int32) {
	if it == A {
		if t.InformTimeA[v] < 0 {
			t.InformTimeA[v] = step
			t.InformEvA[v] = ev
		}
	} else {
		if t.InformTimeB[v] < 0 {
			t.InformTimeB[v] = step
			t.InformEvB[v] = ev
		}
	}
}

func (t *Trace) recordAdopt(v int32, it Item, step, seq, ev int32) {
	if it == A {
		t.AdoptTimeA[v] = step
		t.AdoptSeqA[v] = seq
		t.AdoptEvA[v] = ev
	} else {
		t.AdoptTimeB[v] = step
		t.AdoptSeqB[v] = seq
		t.AdoptEvB[v] = ev
	}
}

// Informed reports whether v was informed of item it during the traced run.
func (t *Trace) Informed(v int32, it Item) bool {
	if it == A {
		return t.InformTimeA[v] >= 0
	}
	return t.InformTimeB[v] >= 0
}

// RunTrace runs one diffusion like Run but returns a full Trace.
func (s *Simulator) RunTrace(seedsA, seedsB []int32, r *rng.RNG) *Trace {
	t := newTrace(s.draws.g.N())
	s.trace = t
	defer func() { s.trace = nil }()
	t.CountA, t.CountB = s.Run(seedsA, seedsB, r)
	for v := int32(0); v < int32(s.draws.g.N()); v++ {
		t.StateA[v] = s.state(v, A)
		t.StateB[v] = s.state(v, B)
	}
	return t
}

// CheckReachableStates panics if the joint state of any node after the most
// recent run is one of the five unreachable states of Appendix A.1. It is a
// debugging/testing aid.
func (s *Simulator) CheckReachableStates() error {
	for v := int32(0); v < int32(s.draws.g.N()); v++ {
		a, b := s.state(v, A), s.state(v, B)
		bad := (a == Idle && b == Rejected) ||
			(a == Suspended && b == Rejected) ||
			(a == Rejected && b == Idle) ||
			(a == Rejected && b == Suspended) ||
			(a == Rejected && b == Rejected)
		if bad {
			return fmt.Errorf("core: node %d in unreachable joint state (A-%v, B-%v)", v, a, b)
		}
	}
	return nil
}
