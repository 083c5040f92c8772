package rrset

import "unsafe"

// coverIndex is the packed inverted coverage index of one collection: for
// every node v, the ids of the RR sets containing v, as one flat postings
// arena in CSR form. BuildCollection (and the snapshot codec) builds it once
// on top of the arena buffers; every selection over the collection then
// reuses it instead of re-inverting the node arena per query, which is what
// makes a warm selection cheap.
//
// Like the collection arena itself, both backing arrays are allocated with
// len == cap so Collection.Bytes stays exact.
type coverIndex struct {
	n    int     // node-id domain [0, n)
	off  []int64 // node v's postings are sets[off[v]:off[v+1]]
	sets []int32 // set ids, ascending within each node's postings
}

// buildCoverIndex inverts a flat RR-set arena (set i's nodes are
// nodes[offsets[i]:offsets[i+1]]) for a graph of n nodes. Postings are
// int64-offset: total node occurrences across a 2M-set collection can
// exceed 2^31 on large graphs.
func buildCoverIndex(offsets []int64, nodes []int32, n int) *coverIndex {
	numSets := len(offsets) - 1
	if numSets < 0 {
		numSets = 0
	}
	off := make([]int64, n+1)
	for _, v := range nodes {
		off[v+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	sets := make([]int32, off[n])
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	for i := 0; i < numSets; i++ {
		for _, v := range nodes[offsets[i]:offsets[i+1]] {
			sets[cursor[v]] = int32(i)
			cursor[v]++
		}
	}
	return &coverIndex{n: n, off: off, sets: sets}
}

// bytes is the exact resident memory of the index (struct + both arrays).
func (c *coverIndex) bytes() int64 {
	return int64(unsafe.Sizeof(*c)) + 8*int64(cap(c.off)) + 4*int64(cap(c.sets))
}

// celfCover is SelectSeeds' CELF lazy-greedy max-coverage core over a
// packed coverage index. It returns min(k, cov.n) seeds and the number of
// sets they cover. Coverage is tracked in a word-packed bitset over set
// ids.
//
// Marginal gains only shrink as sets become covered (coverage counts are
// monotone decreasing), so a popped entry whose cached gain is still
// current is the true argmax and stale entries just get their key refreshed
// and sifted back — the classic CELF argument, specialized to integer
// coverage counts. Output is identical to the eager argmax scan by
// construction (ties break to the lowest node id via lazyKey); the tests
// pin this against an eager argmax scan kept as their oracle.
func celfCover(cov *coverIndex, offsets []int64, nodes []int32, k int) ([]int32, int) {
	n := cov.n
	k = min(k, n)
	numSets := len(offsets) - 1
	if numSets < 0 {
		numSets = 0
	}
	covered := make([]uint64, (numSets+63)/64)
	count := make([]int32, n)
	for v := 0; v < n; v++ {
		count[v] = int32(cov.off[v+1] - cov.off[v])
	}

	// Binary max-heap of lazyKeys, one entry per node, O(n) heapify.
	heap := make([]uint64, n)
	for v := 0; v < n; v++ {
		heap[v] = lazyKey(count[v], int32(v))
	}
	size := n
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= size {
				return
			}
			m := l
			if r := l + 1; r < size && heap[r] > heap[l] {
				m = r
			}
			if heap[i] >= heap[m] {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	seeds := make([]int32, 0, k)
	totalCovered := 0
	for len(seeds) < k && size > 0 {
		v := lazyNode(heap[0])
		if cur := count[v]; cur != lazyGain(heap[0]) {
			// Stale cached gain: refresh in place and re-sift.
			heap[0] = lazyKey(cur, v)
			siftDown(0)
			continue
		}
		seeds = append(seeds, v)
		size--
		heap[0] = heap[size]
		siftDown(0)
		for _, si := range cov.sets[cov.off[v]:cov.off[v+1]] {
			w, bit := si>>6, uint64(1)<<(si&63)
			if covered[w]&bit != 0 {
				continue
			}
			covered[w] |= bit
			totalCovered++
			for _, u := range nodes[offsets[si]:offsets[si+1]] {
				count[u]--
			}
		}
	}
	return seeds, totalCovered
}

// lazyKey packs one CELF priority-queue entry into a uint64 that orders by
// (cached marginal gain descending, node id ascending): the gain fills the
// high 32 bits and the bitwise complement of the node id the low 32, so the
// numerically largest key is the highest-gain, lowest-id entry — the same
// node the full argmax scan this queue replaced would have picked, ties
// included.
func lazyKey(gain int32, node int32) uint64 {
	return uint64(uint32(gain))<<32 | uint64(^uint32(node))
}

func lazyGain(key uint64) int32 { return int32(uint32(key >> 32)) }
func lazyNode(key uint64) int32 { return int32(^uint32(key)) }
