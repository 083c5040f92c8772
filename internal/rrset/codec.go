package rrset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Binary snapshot codec for Collection. Collections are expensive to build
// and cheap to reuse — the amortization the whole serving layer is built on
// — so they are exactly the state worth persisting across restarts. The
// on-disk format is a near-memcpy of the in-memory coverage index: two
// little-endian arrays behind a fixed header.
//
// The format is versioned and checksummed, and the header carries the cache
// key, the graph's node/edge counts, and the build statistics, so a loader
// can reject a stale or mismatched snapshot outright instead of silently
// serving RR sets drawn on the wrong graph:
//
//	magic "CRRS" | version u32
//	key, graphID                 (u32 length-prefixed strings)
//	graphN, graphM               (i64)
//	theta (i64), kpt, lambda     (f64 bits)
//	totalNodes, totalWidth       (i64)
//	explored, exploredKPT        (6 × i64 each)
//	kptNs, genNs                 (i64)
//	numSets, numNodes            (i64)
//	off   (graphN+1 × i64)       node v's postings are sets[off[v]:off[v+1]]
//	sets  (numNodes × i32)       set ids, ascending within each node
//	crc32c of everything above   (u32)
//
// Version 1 files, written while collections kept every set's nodes, hold
// the sets themselves in place of off and sets: offsets (numSets+1 × i64),
// roots (numSets × i32), widths (numSets × i64) and nodes (numNodes × i32),
// set i's nodes being nodes[offsets[i]:offsets[i+1]]. They still restore:
// the reader inverts their sets into the same coverage index a build makes.
//
// Anything after the checksum is ignored. Older writers appended a
// seed-order section ("CORD") and a postings section ("CPST"), and their
// snapshots still restore.
//
// Every array length is cross-checked against the header and against the
// collection's own invariants (offsets monotone from 0 to numNodes, set ids
// inside [0, numSets) and strictly ascending within each node; for version
// 1, roots and nodes inside [0, graphN) and totalWidth = Σ widths), so a
// corrupt or truncated file fails loudly. Reads are allocation-bounded:
// array storage grows only as bytes actually arrive, so a forged header
// cannot demand gigabytes up front.

// SnapshotVersion is the current on-disk format version. ReadCollection
// also restores version 1 and rejects every other version.
const SnapshotVersion = 2

var snapshotMagic = [4]byte{'C', 'R', 'R', 'S'}

// maxSnapshotStringLen bounds the key and graphID strings in a snapshot
// header; real cache keys are a few hundred bytes.
const maxSnapshotStringLen = 1 << 16

// maxSnapshotCount bounds the declared node count. The bound is far above
// any real collection (2^48 elements would be petabytes) but far below the
// int64 range where arithmetic on it could overflow into a negative slice
// capacity and panic instead of erroring. The set count is bounded by the
// int32 set ids instead.
const maxSnapshotCount = 1 << 48

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is one persistable RR-set collection together with the identity
// the loader validates on restore: the cache key the collection was built
// under, the GraphID naming the graph, and the graph's node and edge counts
// (the same reuse guard the live index applies).
type Snapshot struct {
	// Key is the rrset.CollectionRequest.Key() the collection was cached
	// under. Restoring under a different key would serve wrong results;
	// loaders must treat a key mismatch as corruption.
	Key string
	// GraphID names the graph the collection was drawn on. Snapshots of
	// collections keyed by graph pointer identity (empty GraphID) are
	// meaningless across processes and must not be written.
	GraphID string
	// GraphN and GraphM are the node and edge counts of that graph, checked
	// against the live graph on restore.
	GraphN, GraphM int
	// Collection is the immutable collection itself.
	Collection *Collection
}

// WriteTo writes the snapshot in the versioned, checksummed binary format.
// It implements io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	col := s.Collection
	if col == nil {
		return 0, fmt.Errorf("rrset: snapshot has no collection")
	}
	if len(s.Key) > maxSnapshotStringLen || len(s.GraphID) > maxSnapshotStringLen {
		return 0, fmt.Errorf("rrset: snapshot key or graphID exceeds %d bytes", maxSnapshotStringLen)
	}
	off := col.cover.off
	if off == nil && s.GraphN >= 0 {
		// The zero Collection holds no sets: every node's postings are empty.
		off = make([]int64, s.GraphN+1)
	}
	if s.GraphN < 0 || len(off) != s.GraphN+1 || int64(len(col.cover.sets)) != col.TotalNodes {
		return 0, fmt.Errorf("rrset: inconsistent coverage index (%d offsets, %d set ids) for %d nodes and %d postings",
			len(off), len(col.cover.sets), s.GraphN, col.TotalNodes)
	}

	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	crc := crc32.New(crcTable)
	e := &encoder{w: io.MultiWriter(bw, crc)}

	e.raw(snapshotMagic[:])
	e.u32(SnapshotVersion)
	e.str(s.Key)
	e.str(s.GraphID)
	e.i64(int64(s.GraphN))
	e.i64(int64(s.GraphM))
	e.i64(int64(col.Theta))
	e.f64(col.KPT)
	e.f64(col.Lambda)
	e.i64(col.TotalNodes)
	e.i64(col.TotalWidth)
	e.counters(&col.Explored)
	e.counters(&col.ExploredKPT)
	e.i64(int64(col.KPTDuration))
	e.i64(int64(col.GenDuration))
	e.i64(int64(col.Theta))
	e.i64(col.TotalNodes)
	e.i64s(off)
	e.i32s(col.cover.sets)

	if e.err == nil {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], crc.Sum32())
		_, e.err = bw.Write(b[:])
	}
	if e.err == nil {
		e.err = bw.Flush()
	}
	return cw.n, e.err
}

// ReadCollection parses one snapshot written by WriteTo, verifying the
// format version, the checksum, and every structural invariant of the
// collection before returning it. Any failure — truncation, corruption, a
// foreign version — yields an error and no collection; the returned
// collection is always internally consistent and safe to select from.
func ReadCollection(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	crc := crc32.New(crcTable)
	d := &decoder{r: io.TeeReader(br, crc), scratch: make([]byte, 1<<16)}

	var magic [4]byte
	d.raw(magic[:])
	if d.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("rrset: bad snapshot magic %q", magic[:])
	}
	version := d.u32()
	if d.err == nil && version != 1 && version != SnapshotVersion {
		return nil, fmt.Errorf("rrset: snapshot version %d, want 1 or %d", version, SnapshotVersion)
	}
	s := &Snapshot{}
	col := &Collection{}
	s.Collection = col
	s.Key = d.str()
	s.GraphID = d.str()
	graphN := d.i64()
	graphM := d.i64()
	col.Theta = int(d.i64())
	col.KPT = d.f64()
	col.Lambda = d.f64()
	col.TotalNodes = d.i64()
	col.TotalWidth = d.i64()
	d.counters(&col.Explored)
	d.counters(&col.ExploredKPT)
	col.KPTDuration = time.Duration(d.i64())
	col.GenDuration = time.Duration(d.i64())
	numSets := d.i64()
	numNodes := d.i64()
	if d.err != nil {
		return nil, d.err
	}
	if graphN < 0 || graphN > math.MaxInt32 || graphM < 0 {
		return nil, fmt.Errorf("rrset: snapshot graph size %d/%d out of range", graphN, graphM)
	}
	s.GraphN, s.GraphM = int(graphN), int(graphM)
	if numSets < 0 || numNodes < 0 || numSets > math.MaxInt32 || numNodes > maxSnapshotCount {
		return nil, fmt.Errorf("rrset: snapshot lengths out of range (%d sets, %d nodes)", numSets, numNodes)
	}
	if int64(col.Theta) != numSets {
		return nil, fmt.Errorf("rrset: snapshot theta %d does not match %d sets", col.Theta, numSets)
	}
	if col.TotalNodes != numNodes {
		return nil, fmt.Errorf("rrset: snapshot totalNodes %d does not match %d postings", col.TotalNodes, numNodes)
	}
	if numSets > 0 && graphN == 0 {
		return nil, fmt.Errorf("rrset: snapshot has %d sets on an empty graph", numSets)
	}
	if col.KPTDuration < 0 || col.GenDuration < 0 {
		return nil, fmt.Errorf("rrset: negative snapshot durations")
	}

	var v1 arenaV1
	if version == 1 {
		v1.offsets = d.i64s(numSets + 1)
		v1.roots = d.i32s(numSets)
		v1.widths = d.i64s(numSets)
		v1.nodes = d.i32s(numNodes)
	} else {
		col.cover.off = d.i64s(graphN + 1)
		col.cover.sets = d.i32s(numNodes)
	}
	if d.err != nil {
		return nil, d.err
	}

	// The checksum covers everything read so far; capture it before
	// consuming the trailer (which the tee would otherwise hash too).
	want := crc.Sum32()
	got := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if got != want {
		return nil, fmt.Errorf("rrset: snapshot checksum mismatch (file %08x, computed %08x)", got, want)
	}

	if version == 1 {
		if err := v1.check(graphN, col.TotalWidth); err != nil {
			return nil, err
		}
		col.cover = newCoverIndex(int(graphN), v1.sets)
	} else if col.TotalWidth < 0 {
		return nil, fmt.Errorf("rrset: snapshot totalWidth %d negative", col.TotalWidth)
	}
	if err := checkCover(&col.cover, numSets, numNodes); err != nil {
		return nil, err
	}
	return s, nil
}

// checkCover verifies a restored coverage index of numSets sets and
// numNodes postings: offsets monotone from 0 to numNodes, and each node's
// set ids inside [0, numSets) and strictly ascending.
func checkCover(c *coverIndex, numSets, numNodes int64) error {
	n := c.nodes()
	if c.off[0] != 0 || c.off[n] != numNodes {
		return fmt.Errorf("rrset: snapshot offsets do not span the %d postings", numNodes)
	}
	for v := 0; v < n; v++ {
		if c.off[v+1] < c.off[v] || c.off[v+1] > numNodes {
			return fmt.Errorf("rrset: snapshot offsets not monotone inside [0,%d] at node %d", numNodes, v)
		}
		prev := int64(-1)
		for _, si := range c.postings(int32(v)) {
			if int64(si) <= prev || int64(si) >= numSets {
				return fmt.Errorf("rrset: snapshot set id %d of node %d not ascending inside [0,%d)", si, v, numSets)
			}
			prev = int64(si)
		}
	}
	return nil
}

// arenaV1 is the set arena of a version-1 snapshot: set i's nodes are
// nodes[offsets[i]:offsets[i+1]], with its root and width alongside.
type arenaV1 struct {
	offsets      []int64
	roots, nodes []int32
	widths       []int64
}

// check verifies the arena against a graph of graphN nodes and the
// header's totalWidth: offsets monotone from 0 to len(nodes), roots and
// nodes inside [0, graphN), and widths non-negative and summing to
// totalWidth.
func (a *arenaV1) check(graphN, totalWidth int64) error {
	numSets := int64(len(a.roots))
	if a.offsets[0] != 0 || a.offsets[numSets] != int64(len(a.nodes)) {
		return fmt.Errorf("rrset: snapshot offsets do not span the node arena")
	}
	var width int64
	for i := int64(0); i < numSets; i++ {
		if a.offsets[i+1] < a.offsets[i] {
			return fmt.Errorf("rrset: snapshot offsets not monotone at set %d", i)
		}
		if r := a.roots[i]; int64(r) < 0 || int64(r) >= graphN {
			return fmt.Errorf("rrset: snapshot root %d of set %d outside [0,%d)", r, i, graphN)
		}
		if a.widths[i] < 0 {
			return fmt.Errorf("rrset: snapshot width of set %d negative", i)
		}
		width += a.widths[i]
	}
	if width != totalWidth {
		return fmt.Errorf("rrset: snapshot totalWidth %d does not match sum %d", totalWidth, width)
	}
	for i, v := range a.nodes {
		if int64(v) < 0 || int64(v) >= graphN {
			return fmt.Errorf("rrset: snapshot arena node %d at %d outside [0,%d)", v, i, graphN)
		}
	}
	return nil
}

// sets yields the arena's sets in ascending set id.
func (a *arenaV1) sets(yield func([]int32) bool) {
	for i := range a.roots {
		if !yield(a.nodes[a.offsets[i]:a.offsets[i+1]]) {
			return
		}
	}
}

// --- encoding plumbing ---

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// encoder writes little-endian primitives, latching the first error.
type encoder struct {
	w   io.Writer
	err error
	buf [1 << 16]byte
}

func (e *encoder) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.raw(b[:])
}

func (e *encoder) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	e.raw(b[:])
}

func (e *encoder) f64(v float64) { e.i64(int64(math.Float64bits(v))) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.raw([]byte(s))
}

func (e *encoder) counters(c *Counters) {
	e.i64(c.EdgesForward)
	e.i64(c.EdgesBackward)
	e.i64(c.EdgesBackwardFirst)
	e.i64(c.EdgesSecondary)
	e.i64(c.Sets)
	e.i64(c.EmptySets)
}

func (e *encoder) i64s(vs []int64) {
	for len(vs) > 0 && e.err == nil {
		chunk := min(len(vs), len(e.buf)/8)
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(e.buf[i*8:], uint64(vs[i]))
		}
		e.raw(e.buf[: chunk*8 : chunk*8])
		vs = vs[chunk:]
	}
}

func (e *encoder) i32s(vs []int32) {
	for len(vs) > 0 && e.err == nil {
		chunk := min(len(vs), len(e.buf)/4)
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(e.buf[i*4:], uint32(vs[i]))
		}
		e.raw(e.buf[: chunk*4 : chunk*4])
		vs = vs[chunk:]
	}
}

// decoder reads little-endian primitives, latching the first error. Array
// reads are chunked so storage grows only as data actually arrives: a
// forged length field costs at most one chunk of allocation, never the
// declared size.
type decoder struct {
	r       io.Reader
	err     error
	scratch []byte
}

// full reads exactly n bytes (n ≤ len(scratch)) and returns them.
func (d *decoder) full(n int) []byte {
	if d.err != nil {
		return nil
	}
	if _, err := io.ReadFull(d.r, d.scratch[:n]); err != nil {
		d.err = fmt.Errorf("rrset: truncated snapshot: %w", err)
		return nil
	}
	return d.scratch[:n]
}

func (d *decoder) raw(b []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("rrset: truncated snapshot: %w", err)
	}
}

func (d *decoder) u32() uint32 {
	b := d.full(4)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) i64() int64 {
	b := d.full(8)
	if d.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (d *decoder) f64() float64 { return math.Float64frombits(uint64(d.i64())) }

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxSnapshotStringLen {
		d.err = fmt.Errorf("rrset: snapshot string length %d exceeds %d", n, maxSnapshotStringLen)
		return ""
	}
	b := make([]byte, n)
	d.raw(b)
	return string(b)
}

func (d *decoder) counters(c *Counters) {
	c.EdgesForward = d.i64()
	c.EdgesBackward = d.i64()
	c.EdgesBackwardFirst = d.i64()
	c.EdgesSecondary = d.i64()
	c.Sets = d.i64()
	c.EmptySets = d.i64()
}

// decodePrealloc caps the up-front allocation of an array read; anything
// larger grows incrementally and is compacted to exact size afterwards, so
// Collection.Bytes stays exact (len == cap on every backing array).
const decodePrealloc = 1 << 20

func (d *decoder) i64s(count int64) []int64 {
	if d.err != nil {
		return nil
	}
	out := make([]int64, 0, min(count, decodePrealloc))
	for int64(len(out)) < count {
		chunk := int(min(count-int64(len(out)), int64(len(d.scratch)/8)))
		b := d.full(chunk * 8)
		if d.err != nil {
			return nil
		}
		for i := 0; i < chunk; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(b[i*8:])))
		}
	}
	return exactLen(out, count)
}

func (d *decoder) i32s(count int64) []int32 {
	if d.err != nil {
		return nil
	}
	out := make([]int32, 0, min(count, decodePrealloc))
	for int64(len(out)) < count {
		chunk := int(min(count-int64(len(out)), int64(len(d.scratch)/4)))
		b := d.full(chunk * 4)
		if d.err != nil {
			return nil
		}
		for i := 0; i < chunk; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(b[i*4:])))
		}
	}
	return exactLen(out, count)
}

// exactLen returns s backed by an array of exactly count elements.
func exactLen[T any](s []T, count int64) []T {
	if int64(cap(s)) == count {
		return s
	}
	exact := make([]T, count)
	copy(exact, s)
	return exact
}
