package rrset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"comic/internal/graph"
	"comic/internal/rng"
)

// encodeSnapshot round-trips s through WriteTo and asserts the byte count.
func encodeSnapshot(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func builtSnapshot(t *testing.T, theta int) *Snapshot {
	t.Helper()
	g := graph.PowerLaw(300, 6, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	col := BuildCollection(NewIC(g), g.M(), 5, Options{FixedTheta: theta, Workers: 2}, 77)
	return &Snapshot{Key: "test-key|ic|77", GraphID: "pl300#1", GraphN: g.N(), GraphM: g.M(), Collection: col}
}

func TestSnapshotRoundTripBuilt(t *testing.T) {
	// A collection built by the real generator must survive the codec
	// byte-for-byte: identical header fields, identical arena, identical
	// exact Bytes() accounting, and identical seed selection.
	s := builtSnapshot(t, 400)
	data := encodeSnapshot(t, s)

	got, err := ReadCollection(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	if got.Key != s.Key || got.GraphID != s.GraphID || got.GraphN != s.GraphN || got.GraphM != s.GraphM {
		t.Fatalf("header identity mismatch: %+v vs %+v", got, s)
	}
	if !reflect.DeepEqual(got.Collection, s.Collection) {
		t.Fatalf("restored collection differs from original")
	}
	if got.Collection.Bytes() != s.Collection.Bytes() {
		t.Fatalf("restored Bytes() %d != original %d (arena not exact-size)",
			got.Collection.Bytes(), s.Collection.Bytes())
	}
	wantSeeds, _ := SelectSeeds(s.Collection, s.GraphN, 5)
	gotSeeds, _ := SelectSeeds(got.Collection, s.GraphN, 5)
	if !reflect.DeepEqual(wantSeeds, gotSeeds) {
		t.Fatalf("selection from restored collection %v != original %v", gotSeeds, wantSeeds)
	}
}

func TestSnapshotRoundTripDerivedTheta(t *testing.T) {
	// The ε-driven path exercises the KPT/Lambda/ExploredKPT header fields
	// the fixed-θ path leaves zero.
	g := graph.PowerLaw(200, 5, 2.16, true, rng.New(3))
	graph.AssignWeightedCascade(g)
	col := BuildCollection(NewIC(g), g.M(), 4, Options{Epsilon: 0.5, MaxTheta: 5000}, 9)
	s := &Snapshot{Key: "derived", GraphID: "g#2", GraphN: g.N(), GraphM: g.M(), Collection: col}
	got, err := ReadCollection(bytes.NewReader(encodeSnapshot(t, s)))
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	if !reflect.DeepEqual(got.Collection, col) {
		t.Fatalf("restored collection differs (KPT %v vs %v, Lambda %v vs %v)",
			got.Collection.KPT, col.KPT, got.Collection.Lambda, col.Lambda)
	}
}

func TestSnapshotRoundTripEmptyAndSingle(t *testing.T) {
	cases := []struct {
		name string
		col  *Collection
		n, m int
	}{
		{"empty-zero-value", &Collection{}, 0, 0},
		{"empty-normalized", &Collection{offsets: []int64{0}}, 3, 2},
		{"single-set", &Collection{
			offsets:    []int64{0, 2},
			nodes:      []int32{1, 0},
			roots:      []int32{1},
			widths:     []int64{3},
			Theta:      1,
			TotalNodes: 2,
			TotalWidth: 3,
		}, 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Snapshot{Key: "k", GraphID: "g#1", GraphN: tc.n, GraphM: tc.m, Collection: tc.col}
			got, err := ReadCollection(bytes.NewReader(encodeSnapshot(t, s)))
			if err != nil {
				t.Fatalf("ReadCollection: %v", err)
			}
			if got.Collection.Len() != tc.col.Len() || got.Collection.TotalNodes != tc.col.TotalNodes {
				t.Fatalf("restored %d sets/%d nodes, want %d/%d",
					got.Collection.Len(), got.Collection.TotalNodes, tc.col.Len(), tc.col.TotalNodes)
			}
			for i := 0; i < tc.col.Len(); i++ {
				if !reflect.DeepEqual(got.Collection.Set(i), tc.col.Set(i)) {
					t.Fatalf("set %d differs: %+v vs %+v", i, got.Collection.Set(i), tc.col.Set(i))
				}
			}
		})
	}
}

func TestSnapshotLargeHeaderValues(t *testing.T) {
	// int64 header quantities beyond 2^31 (widths, totalWidth, explored
	// counters, durations) must round-trip exactly — a codec that narrows
	// through int or uint32 anywhere would corrupt multi-GiB collections.
	big := int64(3) << 31 // > 2 GiB
	col := &Collection{
		offsets:     []int64{0, 1, 2},
		nodes:       []int32{0, 1},
		roots:       []int32{0, 1},
		widths:      []int64{big, big + 7},
		Theta:       2,
		TotalNodes:  2,
		TotalWidth:  2*big + 7,
		Explored:    Counters{EdgesForward: big + 1, EdgesBackward: big + 2, Sets: 2},
		ExploredKPT: Counters{EdgesSecondary: big + 3},
		KPTDuration: time.Duration(big + 11),
		GenDuration: time.Duration(big + 13),
		KPT:         1e12,
		Lambda:      2.5e18,
	}
	// ReadCollection always rebuilds the coverage index; give the hand-made
	// original one too so DeepEqual compares the full in-memory shape.
	col.cover = buildCoverIndex(col.offsets, col.nodes, 2)
	s := &Snapshot{Key: "big", GraphID: "g#9", GraphN: 2, GraphM: 1, Collection: col}
	got, err := ReadCollection(bytes.NewReader(encodeSnapshot(t, s)))
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	if !reflect.DeepEqual(got.Collection, col) {
		t.Fatalf("large-value collection did not round-trip: %+v vs %+v", got.Collection, col)
	}
}

func TestSnapshotWriteRejectsInconsistent(t *testing.T) {
	var buf bytes.Buffer
	if _, err := (&Snapshot{}).WriteTo(&buf); err == nil {
		t.Fatal("WriteTo accepted a snapshot with no collection")
	}
	bad := &Snapshot{Key: "k", GraphN: 1, Collection: &Collection{
		roots: []int32{0}, widths: []int64{0}, offsets: []int64{0}, // offsets too short
	}}
	if _, err := bad.WriteTo(&buf); err == nil {
		t.Fatal("WriteTo accepted an inconsistent arena")
	}
}

func TestReadCollectionRejectsCorruption(t *testing.T) {
	valid := encodeSnapshot(t, builtSnapshot(t, 100))

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), valid...)
		b = f(b)
		if _, err := ReadCollection(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: ReadCollection accepted corrupt input", name)
		}
	}
	mutate("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("wrong-version", func(b []byte) []byte { b[4]++; return b })
	mutate("flipped-payload-byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	mutate("flipped-trailer", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	mutate("truncated-header", func(b []byte) []byte { return b[:20] })
	mutate("truncated-arrays", func(b []byte) []byte { return b[:len(b)*3/4] })
	mutate("truncated-trailer", func(b []byte) []byte { return b[:len(b)-2] })
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("huge-key-length", func(b []byte) []byte {
		// The key length field sits right after magic+version.
		b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0x7f
		return b
	})
}

func TestReadCollectionBoundedAllocation(t *testing.T) {
	// A header declaring 2^40 sets followed by a truncated body must fail
	// without attempting to allocate the declared size. A tiny snapshot is
	// rewritten with forged lengths; success here is "error, no OOM".
	col := &Collection{offsets: []int64{0}, roots: []int32{}, widths: []int64{}, nodes: []int32{}}
	valid := encodeSnapshot(t, &Snapshot{Key: "k", GraphID: "g", GraphN: 1, GraphM: 0, Collection: col})

	// Forge numSets (third-to-last i64 before the arrays: the layout ends
	// … numSets numNodes offsets(1×8) crc(4)) and theta (which must match
	// numSets to get past the header cross-check; it sits after the two
	// 1-byte strings and graphN/graphM, at offset 34 for this snapshot).
	forge := func(fill func(b []byte, off int)) []byte {
		b := append([]byte(nil), valid...)
		// numSets (third-to-last i64 before the arrays) and theta (offset
		// 34, which must match numSets to get past the cross-check).
		for _, off := range []int{len(b) - 12 - 16, 34} {
			fill(b, off)
		}
		return b
	}
	huge := forge(func(b []byte, off int) {
		for i := 0; i < 7; i++ {
			b[off+i] = 0xff
		}
		b[off+7] = 0x00 // ~2^56, positive but beyond maxSnapshotCount
	})
	if _, err := ReadCollection(bytes.NewReader(huge)); err == nil {
		t.Fatal("accepted forged set count")
	}
	// MaxInt64 makes numSets+1 overflow negative; this must error, not
	// panic with a negative make() capacity.
	maxed := forge(func(b []byte, off int) {
		for i := 0; i < 7; i++ {
			b[off+i] = 0xff
		}
		b[off+7] = 0x7f
	})
	if _, err := ReadCollection(bytes.NewReader(maxed)); err == nil {
		t.Fatal("accepted MaxInt64 set count")
	}
}

// TestSnapshotIgnoresTrailingSections: older writers appended a seed-order
// section ("CORD") and then a postings section ("CPST") after the main
// checksum. Snapshots carrying either, both, or trailing garbage must
// restore exactly as the plain encoding does.
func TestSnapshotIgnoresTrailingSections(t *testing.T) {
	s := builtSnapshot(t, 400)
	plain := encodeSnapshot(t, s)
	want, err := ReadCollection(bytes.NewReader(plain))
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	mainCRC := binary.LittleEndian.Uint32(plain[len(plain)-4:])
	theta := int64(s.Collection.Len())
	// section encodes magic, then each field little-endian, then the
	// crc32c of everything before it, as the old writers did.
	section := func(magic string, fields ...any) []byte {
		var b bytes.Buffer
		b.WriteString(magic)
		for _, v := range fields {
			if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := binary.Write(&b, binary.LittleEndian, crc32.Checksum(b.Bytes(), crcTable)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// CORD: version, bindCRC, maxK, seeds, per-prefix covered counts.
	seeds, _ := SelectSeeds(s.Collection, s.GraphN, 5)
	order := section("CORD", uint32(1), mainCRC, int64(len(seeds)), seeds, make([]int64, len(seeds)))
	// CPST: version, bindCRC, set/edge/node counts, two offset arrays.
	postings := section("CPST", uint32(1), mainCRC, theta, int64(0), int64(0),
		make([]int64, theta+1), make([]int64, theta+1))

	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"order", order},
		{"order+postings", append(append([]byte(nil), order...), postings...)},
		{"garbage", []byte{0xde, 0xad, 0xbe, 0xef}},
	} {
		got, err := ReadCollection(bytes.NewReader(append(append([]byte(nil), plain...), tc.tail...)))
		if err != nil {
			t.Fatalf("%s: ReadCollection: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: trailing bytes changed the restored snapshot", tc.name)
		}
	}
}

func FuzzReadCollection(f *testing.F) {
	smalls := []*Snapshot{
		{Key: "k", GraphID: "g#1", GraphN: 0, GraphM: 0, Collection: &Collection{}},
		{Key: "single", GraphID: "g#1", GraphN: 3, GraphM: 2, Collection: &Collection{
			offsets: []int64{0, 2}, nodes: []int32{1, 0}, roots: []int32{1}, widths: []int64{3},
			Theta: 1, TotalNodes: 2, TotalWidth: 3,
		}},
		{Key: "wide", GraphID: "g#2", GraphN: 2, GraphM: 1, Collection: &Collection{
			offsets: []int64{0, 1}, nodes: []int32{0}, roots: []int32{1}, widths: []int64{int64(5) << 31},
			Theta: 1, TotalNodes: 1, TotalWidth: int64(5) << 31,
		}},
	}
	for _, s := range smalls {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CRRS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadCollection(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parses must be internally consistent enough to select
		// from without panicking.
		col := s.Collection
		for i := 0; i < col.Len(); i++ {
			_ = col.Set(i)
		}
		if s.GraphN > 0 {
			SelectSeeds(col, s.GraphN, 2)
		}
	})
}
