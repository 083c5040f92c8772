package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name string
		iv   [][2]int64
		want int64
	}{
		{"empty", nil, 0},
		{"disjoint", [][2]int64{{0, 10}, {20, 25}}, 15},
		{"overlapping", [][2]int64{{0, 10}, {5, 15}}, 15},
		{"nested", [][2]int64{{0, 100}, {10, 20}, {30, 40}}, 100},
		{"touching", [][2]int64{{0, 10}, {10, 20}}, 20},
		{"unsorted chain", [][2]int64{{30, 50}, {0, 10}, {8, 32}}, 50},
		{"empty and inverted intervals count nothing", [][2]int64{{5, 5}, {9, 3}, {0, 1}}, 1},
	} {
		if got := unionLen(tc.iv); got != tc.want {
			t.Errorf("%s: unionLen = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 40},  // the lower bound's collection
		{Start: 30, End: 60},  // the upper bound's, concurrently: overlap counted once
		{Start: 80, End: 120}, // clipped at the parent's end
	}
	// Covered: [10,60) and [80,100) = 70, so 30 is the parent's own.
	if got := selfTime(parent, children); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestTracerRecordsConcurrentSpansAndWritesThem(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := tr.begin("rrset.collection", root.ID, 7)
			time.Sleep(time.Millisecond)
			tr.end(s, map[string]float64{"build": 1})
		}()
	}
	wg.Wait()
	tr.end(root, nil)
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	ids := map[int]bool{}
	for _, s := range tr.spans {
		ids[s.ID] = true
		if s.End < s.Start || s.Op != 7 {
			t.Errorf("bad span %+v", s)
		}
		if s.Name == "rrset.collection" && s.Parent != root.ID {
			t.Errorf("child parent = %d, want %d", s.Parent, root.ID)
		}
	}
	if len(ids) != 3 {
		t.Errorf("span ids not unique: %v", ids)
	}

	path := filepath.Join(t.TempDir(), "traces", "x.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(b, &back); err != nil || len(back) != 3 {
		t.Fatalf("written trace does not read back: %d spans, %v", len(back), err)
	}
}

func TestSpanMetricsSeparatesWarmupFromTimedOps(t *testing.T) {
	at := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		// Warm-up op -1: one build, one ordering build.
		{ID: 1, Op: -1, Name: "op", Start: 0, End: at(50)},
		{ID: 2, Op: -1, Parent: 1, Name: "solver.solve", Start: 0, End: at(50), Attrs: map[string]float64{"sims": 1000}},
		{ID: 3, Op: -1, Parent: 2, Name: "rrset.collection", Start: 0, End: at(30),
			Attrs: map[string]float64{"build": 1, "kptMs": 2, "genMs": 25, "theta": 1000, "bytes": 4e6}},
		{ID: 4, Op: -1, Parent: 2, Name: "rrset.select", Start: at(30), End: at(31), Attrs: map[string]float64{"orderBuild": 1, "selectMs": 1}},
		// Timed op 0: a hit; 10 of its 40 ms are index spans.
		{ID: 5, Op: 0, Name: "op", Start: at(100), End: at(141)},
		{ID: 6, Op: 0, Parent: 5, Name: "solver.solve", Start: at(100), End: at(140), Attrs: map[string]float64{"sims": 600}},
		{ID: 7, Op: 0, Parent: 6, Name: "rrset.collection", Start: at(100), End: at(105)},
		{ID: 8, Op: 0, Parent: 6, Name: "rrset.select", Start: at(104), End: at(110)},
		{ID: 9, Op: 0, Parent: 5, Name: "server.repair_graph", Start: at(90), End: at(100), Attrs: map[string]float64{"reusedSets": 75, "repairedSets": 25}},
	}
	m := spanMetrics(spans)
	for name, want := range map[string]float64{
		"replay.op_ms":            41,
		"solver.solve_ms":         40,
		"montecarlo.score_ms":     30,
		"montecarlo.sims_per_s":   600 / 0.030,
		"rrset.kpt_ms":            2,
		"rrset.gen_ms":            25,
		"rrset.theta":             1000,
		"rrset.collection_mb":     4,
		"rrset.order_build_ms":    1,
		"rrset.repair_dirty_frac": 0.25,
		"graph.apply_ms":          0,
	} {
		if got := m[name].Value; got < want*0.999999 || got > want*1.000001 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
