// Package multi implements the k-item extension of Com-IC sketched in the
// paper's conclusions (§8): "Com-IC can be extended to accommodate k items,
// if we allow k·2^(k−1) GAP parameters — for each item, we specify the
// probability of adoption for every combination of other items that have
// been adopted."
//
// The NLA generalizes naturally: a node holds one α threshold per item; an
// informed item is adopted when its α is at most the GAP indexed by the
// node's currently-adopted set, and every new adoption triggers
// reconsideration of all informed-but-unadopted items against the enlarged
// set. With k = 2 this is exactly the core model (verified by tests).
package multi

import (
	"cmp"
	"fmt"
	"slices"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// MaxItems bounds k so adoption sets fit in a uint32 mask.
const MaxItems = 16

// GAPTable holds q_{i|S} for every item i and every subset S of other items
// (encoded as a bit mask that must not contain bit i).
type GAPTable struct {
	k int
	q [][]float64 // q[i][mask]
}

// NewGAPTable returns a zero-filled table for k items.
func NewGAPTable(k int) (*GAPTable, error) {
	if k < 1 || k > MaxItems {
		return nil, fmt.Errorf("multi: k must be in [1, %d], got %d", MaxItems, k)
	}
	t := &GAPTable{k: k, q: make([][]float64, k)}
	for i := range t.q {
		t.q[i] = make([]float64, 1<<k)
	}
	return t, nil
}

// K returns the number of items.
func (t *GAPTable) K() int { return t.k }

// ParamCount returns the number of free parameters, k·2^(k−1) (§8).
func (t *GAPTable) ParamCount() int { return t.k * (1 << (t.k - 1)) }

// Set assigns q_{item|mask}. mask must not contain the item's own bit.
func (t *GAPTable) Set(item int, mask uint32, p float64) error {
	if item < 0 || item >= t.k {
		return fmt.Errorf("multi: item %d out of range", item)
	}
	if mask&(1<<uint(item)) != 0 {
		return fmt.Errorf("multi: mask %b contains item %d itself", mask, item)
	}
	if mask >= 1<<uint(t.k) {
		return fmt.Errorf("multi: mask %b out of range for k=%d", mask, t.k)
	}
	if p < 0 || p > 1 {
		return fmt.Errorf("multi: probability %v out of [0,1]", p)
	}
	t.q[item][mask] = p
	return nil
}

// Get returns q_{item|mask}; the item's own bit is ignored if present.
func (t *GAPTable) Get(item int, mask uint32) float64 {
	return t.q[item][mask&^(1<<uint(item))]
}

// SetAll assigns q_{item|S} = p for every subset S.
func (t *GAPTable) SetAll(item int, p float64) error {
	for mask := uint32(0); mask < 1<<uint(t.k); mask++ {
		if mask&(1<<uint(item)) != 0 {
			continue
		}
		if err := t.Set(item, mask, p); err != nil {
			return err
		}
	}
	return nil
}

// FromPairGAP embeds a two-item GAP set into a GAPTable, item 0 = A,
// item 1 = B.
func FromPairGAP(gap core.GAP) *GAPTable {
	t, err := NewGAPTable(2)
	if err != nil {
		panic(err)
	}
	t.q[0][0] = gap.QA0 // A with nothing adopted
	t.q[0][2] = gap.QAB // A with B adopted
	t.q[1][0] = gap.QB0
	t.q[1][1] = gap.QBA
	return t
}

// Simulator runs k-item Com-IC diffusions. Like core.Simulator it reuses
// scratch arrays, takes its randomness from a core.Draws (thresholds indexed
// v·k + i), and is not safe for concurrent use.
type Simulator struct {
	t     *GAPTable
	draws core.Draws

	epoch    uint32
	adopted  []uint32 // bitmask per node
	informed []uint32
	stampN   []uint32

	cur, next []event
	informs   []inform
	counts    []int
	order     []int32 // the run's seed-item order
	seq       int32
}

type event struct {
	node int32
	item uint8
	seq  int32
}

type inform struct {
	target int32
	item   uint8
	rank   float64
	seq    int32
}

// NewSimulator returns a Simulator for g under the GAP table.
func NewSimulator(g *graph.Graph, t *GAPTable) *Simulator {
	n := g.N()
	return &Simulator{
		t:        t,
		draws:    core.NewDraws(g, t.k),
		adopted:  make([]uint32, n),
		informed: make([]uint32, n),
		stampN:   make([]uint32, n),
		counts:   make([]int, t.k),
		order:    make([]int32, t.k),
	}
}

func (s *Simulator) bump() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stampN)
		s.epoch = 1
	}
}

func (s *Simulator) touch(v int32) {
	if s.stampN[v] != s.epoch {
		s.stampN[v] = s.epoch
		s.adopted[v] = 0
		s.informed[v] = 0
	}
}

// adopt makes v adopt item and triggers reconsideration of every informed,
// unadopted item against the enlarged adoption set, to fixpoint.
func (s *Simulator) adopt(v int32, item uint8) {
	s.touch(v)
	bit := uint32(1) << item
	if s.adopted[v]&bit != 0 {
		return
	}
	s.adopted[v] |= bit
	s.informed[v] |= bit
	s.counts[item]++
	s.seq++
	s.next = append(s.next, event{node: v, item: item, seq: s.seq})
	// Reconsideration sweep.
	for {
		progressed := false
		pending := s.informed[v] &^ s.adopted[v]
		for i := uint8(0); i < uint8(s.t.k); i++ {
			if pending&(1<<i) == 0 {
				continue
			}
			if s.draws.Alpha(v, core.Item(i)) <= s.t.Get(int(i), s.adopted[v]) {
				s.adopted[v] |= 1 << i
				s.counts[int(i)]++
				s.seq++
				s.next = append(s.next, event{node: v, item: i, seq: s.seq})
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

func (s *Simulator) processInform(v int32, item uint8) {
	s.touch(v)
	bit := uint32(1) << item
	if s.informed[v]&bit != 0 {
		return // idle->X transition happens at most once per item
	}
	s.informed[v] |= bit
	if s.draws.Alpha(v, core.Item(item)) <= s.t.Get(int(item), s.adopted[v]) {
		s.adopt(v, item)
	}
}

// AdoptedMask returns v's adopted-items mask after the most recent run.
func (s *Simulator) AdoptedMask(v int32) uint32 {
	if s.stampN[v] != s.epoch {
		return 0
	}
	return s.adopted[v]
}

// Run executes one diffusion: seedSets[i] seeds item i. Returns the
// per-item adoption counts (aliased scratch, copy to retain). Nodes seeding
// several items adopt them in one shared random order per run (a
// simplification of the per-node τ coin that coincides with it for disjoint
// seed sets).
func (s *Simulator) Run(seedSets [][]int32, r *rng.RNG) []int {
	if len(seedSets) != s.t.k {
		panic(fmt.Sprintf("multi: %d seed sets for k=%d items", len(seedSets), s.t.k))
	}
	s.draws.Begin(r)
	s.bump()
	s.seq = 0
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.cur = s.cur[:0]
	s.next = s.next[:0]

	// Seeds adopt in random item order per node (generalizing the τ coin).
	r.Perm(s.order)
	for _, itemIdx := range s.order {
		for _, v := range seedSets[itemIdx] {
			s.touch(v)
			if s.adopted[v]&(1<<uint(itemIdx)) == 0 {
				s.adopt(v, uint8(itemIdx))
			}
		}
	}

	for len(s.next) > 0 {
		s.cur, s.next = s.next, s.cur[:0]
		s.step()
	}
	return s.counts
}

// step propagates the previous step's adoptions. Both sorts order distinct
// entries totally ((node, seq) and (target, rank, seq) are unique keys, up
// to entries equal in every field), so their result does not depend on the
// sort algorithm.
func (s *Simulator) step() {
	s.informs = s.informs[:0]
	slices.SortFunc(s.cur, func(a, b event) int {
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
		to, eids := s.draws.Graph().OutNeighbors(u)
		for e := range to {
			if !s.draws.EdgeLive(eids[e]) {
				continue
			}
			rank := s.draws.Rank(eids[e])
			for _, ev := range s.cur[i:j] {
				s.informs = append(s.informs, inform{
					target: to[e], item: ev.item, rank: rank, seq: ev.seq,
				})
			}
		}
		i = j
	}
	slices.SortFunc(s.informs, func(a, b inform) int {
		if a.target != b.target {
			return cmp.Compare(a.target, b.target)
		}
		if a.rank != b.rank {
			if a.rank < b.rank {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range s.informs {
		s.processInform(s.informs[i].target, s.informs[i].item)
	}
}
