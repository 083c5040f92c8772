package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge-update operations accepted by ApplyUpdates. The strings double as the
// wire values of the server's PATCH /v1/graphs/{name}/edges body.
type UpdateOp string

const (
	OpAdd      UpdateOp = "add"      // insert a new edge (u, v) with probability P
	OpRemove   UpdateOp = "remove"   // delete the existing edge (u, v)
	OpReweight UpdateOp = "reweight" // set the probability of the existing edge (u, v) to P
)

// EdgeUpdate is one mutation in a batch.
type EdgeUpdate struct {
	Op UpdateOp
	U  int32
	V  int32
	P  float64 // probability for add/reweight; ignored for remove
}

// Reweight records one surviving edge whose probability changed across an
// ApplyUpdates batch. EIDs refer to the OLD graph's edge-id space.
type Reweight struct {
	OldEID int32
	OldP   float64
	NewP   float64
}

// AddedEdge records one edge inserted by an ApplyUpdates batch. NewEID refers
// to the NEW graph's edge-id space.
type AddedEdge struct {
	U, V   int32
	NewEID int32
	P      float64
}

// Delta describes the net effect of an ApplyUpdates batch: how the old
// edge-id space maps onto the new one, plus the reweighted, removed, and
// added edges after intra-batch cancellation (an edge added then removed in
// the same batch appears nowhere).
type Delta struct {
	OldM int
	NewM int

	// EIDMap maps every old edge id to its new edge id, or -1 if removed.
	// Surviving edges keep their relative (u, v) order, so the map is
	// monotone over non-negative entries.
	EIDMap []int32

	Reweighted []Reweight
	RemovedEID []int32 // old edge ids, ascending
	Added      []AddedEdge
}

// TopologyChanged reports whether the batch altered the edge set itself
// (as opposed to only reweighting existing edges).
func (d *Delta) TopologyChanged() bool {
	return len(d.RemovedEID) > 0 || len(d.Added) > 0
}

// FindEdge returns the edge id of (u, v) if present. It binary-searches u's
// out-list, which the builder keeps sorted by destination.
func (g *Graph) FindEdge(u, v int32) (int32, bool) {
	if u < 0 || int(u) >= g.n {
		return -1, false
	}
	lo, hi := g.outOff[u], g.outOff[u+1]
	to := g.outTo[lo:hi]
	i := sort.Search(len(to), func(i int) bool { return to[i] >= v })
	if i < len(to) && to[i] == v {
		return g.outEID[int(lo)+i], true
	}
	return -1, false
}

// ApplyUpdates applies a batch of edge mutations and returns a new Graph
// (the receiver is never modified) together with the net Delta. The batch is
// atomic: any invalid update fails the whole batch with no new graph.
//
// Updates are interpreted sequentially against the evolving logical state,
// so "remove (u,v)" followed by "add (u,v) p" is legal and nets out to a
// removed old edge plus an added new edge, while "add" followed by "remove"
// of the same pair cancels entirely. Adding an edge that already exists,
// or removing/reweighting one that doesn't, is an error. The node count is
// fixed: endpoints must lie in [0, N).
func (g *Graph) ApplyUpdates(updates []EdgeUpdate) (*Graph, *Delta, error) {
	if len(updates) == 0 {
		return nil, nil, errors.New("graph: empty update batch")
	}

	// Logical state during the sweep, all keyed in the OLD id space where
	// possible: removed[eid], reweighted[eid] = latest p, and added edges
	// keyed by endpoint pair (these have no old id).
	removed := make(map[int32]bool)
	reweighted := make(map[int32]float64)
	type pair struct{ u, v int32 }
	added := make(map[pair]float64)

	for i, up := range updates {
		if up.U < 0 || int(up.U) >= g.n || up.V < 0 || int(up.V) >= g.n {
			return nil, nil, fmt.Errorf("graph: update %d (%s %d->%d) endpoint out of range [0,%d)", i, up.Op, up.U, up.V, g.n)
		}
		if up.U == up.V {
			return nil, nil, fmt.Errorf("graph: update %d is a self-loop at node %d", i, up.U)
		}
		eid, inOld := g.FindEdge(up.U, up.V)
		present := (inOld && !removed[eid]) || hasPair(added, pair{up.U, up.V})
		switch up.Op {
		case OpAdd:
			if up.P < 0 || up.P > 1 {
				return nil, nil, fmt.Errorf("graph: update %d probability %v out of [0,1]", i, up.P)
			}
			if present {
				return nil, nil, fmt.Errorf("graph: update %d adds edge %d->%d which already exists", i, up.U, up.V)
			}
			added[pair{up.U, up.V}] = up.P
		case OpRemove:
			if !present {
				return nil, nil, fmt.Errorf("graph: update %d removes missing edge %d->%d", i, up.U, up.V)
			}
			if hasPair(added, pair{up.U, up.V}) {
				delete(added, pair{up.U, up.V}) // add then remove: net nothing
			} else {
				removed[eid] = true
				delete(reweighted, eid)
			}
		case OpReweight:
			if up.P < 0 || up.P > 1 {
				return nil, nil, fmt.Errorf("graph: update %d probability %v out of [0,1]", i, up.P)
			}
			if !present {
				return nil, nil, fmt.Errorf("graph: update %d reweights missing edge %d->%d", i, up.U, up.V)
			}
			if hasPair(added, pair{up.U, up.V}) {
				added[pair{up.U, up.V}] = up.P
			} else {
				reweighted[eid] = up.P
			}
		default:
			return nil, nil, fmt.Errorf("graph: update %d has unknown op %q (want add, remove or reweight)", i, up.Op)
		}
	}

	// Build the new graph: surviving old edges (with their latest
	// probability) plus net additions. The builder re-sorts and re-numbers,
	// assigning new edge ids in (u, v) order exactly as the original build.
	b := NewBuilder(g.n)
	for eid := int32(0); int(eid) < g.m; eid++ {
		if removed[eid] {
			continue
		}
		p := g.prob[eid]
		if np, ok := reweighted[eid]; ok {
			p = np
		}
		b.AddEdge(g.edgeSrc[eid], g.outToByEID[eid], p)
	}
	for pr, p := range added {
		b.AddEdge(pr.u, pr.v, p)
	}
	ng, err := b.Build()
	if err != nil {
		return nil, nil, err
	}

	d := &Delta{OldM: g.m, NewM: ng.M(), EIDMap: make([]int32, g.m)}
	for eid := int32(0); int(eid) < g.m; eid++ {
		if removed[eid] {
			d.EIDMap[eid] = -1
			d.RemovedEID = append(d.RemovedEID, eid)
			continue
		}
		nid, ok := ng.FindEdge(g.edgeSrc[eid], g.outToByEID[eid])
		if !ok {
			return nil, nil, fmt.Errorf("graph: internal error: surviving edge %d->%d missing after rebuild", g.edgeSrc[eid], g.outToByEID[eid])
		}
		d.EIDMap[eid] = nid
		if np, ok := reweighted[eid]; ok && np != g.prob[eid] {
			d.Reweighted = append(d.Reweighted, Reweight{OldEID: eid, OldP: g.prob[eid], NewP: np})
		}
	}
	//comic:unordered d.Added is sorted by NewEID right below
	for pr, p := range added {
		nid, ok := ng.FindEdge(pr.u, pr.v)
		if !ok {
			return nil, nil, fmt.Errorf("graph: internal error: added edge %d->%d missing after rebuild", pr.u, pr.v)
		}
		d.Added = append(d.Added, AddedEdge{U: pr.u, V: pr.v, NewEID: nid, P: p})
	}
	sort.Slice(d.Added, func(i, j int) bool { return d.Added[i].NewEID < d.Added[j].NewEID })
	return ng, d, nil
}

func hasPair[K comparable](m map[K]float64, k K) bool {
	_, ok := m[k]
	return ok
}
