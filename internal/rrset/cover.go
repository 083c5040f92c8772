package rrset

import "iter"

// coverIndex is the packed inverted coverage index of one collection, and
// the only per-set data the collection keeps: for every node v, the ids of
// the RR sets containing v, as one flat postings arena in CSR form.
// BuildCollection inverts its workers' generation buffers straight into it,
// and the snapshot codec reads it back as is; every selection over the
// collection reuses it. Greedy max coverage needs nothing else: a node's
// marginal gain is the number of its postings not yet covered.
//
// Both backing arrays are allocated with len == cap so Collection.Bytes
// stays exact. Postings are int64-offset: total node occurrences across a
// 2M-set collection can exceed 2^31 on large graphs.
type coverIndex struct {
	off  []int64 // node v's postings are sets[off[v]:off[v+1]]; len n+1
	sets []int32 // set ids, strictly ascending within each node's postings
}

// nodes returns the size of the node-id domain [0, n) the index covers.
func (c *coverIndex) nodes() int { return len(c.off) - 1 }

// postings returns the ids of the sets containing v, ascending.
func (c *coverIndex) postings(v int32) []int32 { return c.sets[c.off[v]:c.off[v+1]] }

// bytes is the exact resident memory of the index's two arrays.
func (c *coverIndex) bytes() int64 {
	return 8*int64(cap(c.off)) + 4*int64(cap(c.sets))
}

// newCoverIndex inverts RR sets over the node-id domain [0, n). sets
// yields each set's nodes in ascending set id, and is ranged twice: once to
// count each node's postings and once to fill them. Visiting set ids in
// order keeps every node's postings ascending, whatever order a set lists
// its nodes in.
func newCoverIndex(n int, sets iter.Seq[[]int32]) coverIndex {
	off := make([]int64, n+1)
	for nodes := range sets {
		for _, v := range nodes {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ids := make([]int32, off[n])
	// off[v] serves as v's write cursor, which leaves it at v's end; one
	// shift right afterwards restores the starts.
	i := int32(0)
	for nodes := range sets {
		for _, v := range nodes {
			ids[off[v]] = i
			off[v]++
		}
		i++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return coverIndex{off: off, sets: ids}
}

// celfCover is SelectSeeds' CELF lazy-greedy max-coverage core over a
// packed coverage index of numSets sets. It returns min(k, nodes) seeds and
// the number of sets they cover. Coverage is tracked in a word-packed
// bitset over set ids.
//
// Marginal gains only shrink as sets become covered, so a popped entry
// whose cached gain is still current is the true argmax, and stale entries
// just get their key refreshed and sifted back — the classic CELF
// argument, specialized to integer coverage counts. A popped node's current
// gain is recounted from its postings against the bitset, unless it was
// already recounted since the last pick: stamp[v] holds the pick number of
// v's last count, and every count starts current at pick 0. Output is
// identical to the eager argmax scan by construction (ties break to the
// lowest node id via lazyKey); the tests pin this against an eager argmax
// scan kept as their oracle.
func celfCover(cov *coverIndex, numSets, k int) ([]int32, int) {
	n := cov.nodes()
	k = min(k, n)
	covered := make([]uint64, (numSets+63)/64)
	stamp := make([]int32, n)

	// Binary max-heap of lazyKeys, one entry per node, O(n) heapify.
	heap := make([]uint64, n)
	for v := 0; v < n; v++ {
		heap[v] = lazyKey(int32(cov.off[v+1]-cov.off[v]), int32(v))
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
		if pick := int32(len(seeds)); stamp[v] != pick {
			stamp[v] = pick
			cur := int32(0)
			for _, si := range cov.postings(v) {
				if covered[si>>6]&(1<<(si&63)) == 0 {
					cur++
				}
			}
			if cur != lazyGain(heap[0]) {
				// Stale cached gain: refresh in place and re-sift.
				heap[0] = lazyKey(cur, v)
				siftDown(0)
				continue
			}
		}
		seeds = append(seeds, v)
		size--
		heap[0] = heap[size]
		siftDown(0)
		for _, si := range cov.postings(v) {
			w, bit := si>>6, uint64(1)<<(si&63)
			if covered[w]&bit == 0 {
				covered[w] |= bit
				totalCovered++
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
