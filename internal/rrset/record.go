package rrset

import "unsafe"

// Postings is the optional per-set examination index recorded at generation
// time, the data structure that turns a graph edit into a sparse repair
// (Repair): for every RR set, which edge coins its generation consumed (with
// the sampled outcome) and which nodes had an adjacency list scanned.
//
// A set's replay on an edited graph is draw-for-draw identical — and the set
// therefore reusable verbatim — iff none of its examined edges was removed or
// reweighted across its recorded outcome, and no added edge hangs off one of
// its scanned nodes. Both arrays are in examination order, CSR-packed per
// set like the node arena, so Bytes stays exact.
type Postings struct {
	// EdgeOff/Edges: set i consumed the edge coins
	// Edges[EdgeOff[i]:EdgeOff[i+1]], each packed as eid<<1 | liveBit, in
	// the order the coins were drawn.
	EdgeOff []int64
	Edges   []uint32
	// NodeOff/Nodes: set i scanned the adjacency lists of
	// Nodes[NodeOff[i]:NodeOff[i+1]] (deduplicated, first-scan order). An
	// edge added to the graph can only be examined by a replay if one of
	// its endpoints is in this list.
	NodeOff []int64
	Nodes   []int32
}

// Bytes returns the exact resident memory of the index, the share of
// Collection.Bytes it accounts for.
func (p *Postings) Bytes() int64 {
	return int64(unsafe.Sizeof(*p)) +
		8*int64(cap(p.EdgeOff)) + 4*int64(cap(p.Edges)) +
		8*int64(cap(p.NodeOff)) + 4*int64(cap(p.Nodes))
}

// recorder captures one set's examination trace during generation. It is
// attached to a generator clone via the recordable interface and costs one
// nil check per edge-coin draw and per adjacency scan when detached.
type recorder struct {
	edges []uint32 // eid<<1 | liveBit, draw order
	nodes []int32  // scanned nodes, first-scan order

	nodeStamp []uint32 // O(1)-reset dedup for nodes
	nodeEpoch uint32
}

func newRecorder(n int) *recorder {
	return &recorder{nodeStamp: make([]uint32, n)}
}

// beginSet starts recording a fresh set, discarding the previous trace.
func (rec *recorder) beginSet() {
	rec.edges = rec.edges[:0]
	rec.nodes = rec.nodes[:0]
	rec.nodeEpoch++
	if rec.nodeEpoch == 0 {
		for i := range rec.nodeStamp {
			rec.nodeStamp[i] = 0
		}
		rec.nodeEpoch = 1
	}
}

func (rec *recorder) edge(eid int32, live bool) {
	w := uint32(eid) << 1
	if live {
		w |= 1
	}
	rec.edges = append(rec.edges, w)
}

func (rec *recorder) node(v int32) {
	if rec.nodeStamp[v] == rec.nodeEpoch {
		return
	}
	rec.nodeStamp[v] = rec.nodeEpoch
	rec.nodes = append(rec.nodes, v)
}

// recordable is implemented by every generator in this package; Repair and
// collectFlat attach a recorder through it. A foreign Generator that does not
// implement it simply cannot produce postings (RecordPostings degrades to a
// postings-less collection).
type recordable interface {
	setRecorder(rec *recorder)
}
