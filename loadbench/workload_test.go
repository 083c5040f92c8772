package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// stream encodes a workload's warm-up and first n ops, the bytes a run
// would send.
func stream(t *testing.T, name string, seed uint64, n int) ([]byte, *workload) {
	t.Helper()
	ds, err := loadDatasets()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(name, seed, ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(w.warmup); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := enc.Encode(w.next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), w
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := stream(t, name, 1, 200)
		b, _ := stream(t, name, 1, 200)
		c, _ := stream(t, name, 2, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two op sequences", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	ds, err := loadDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newWorkload("hot-solve", 1, ds); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWarmSolveRepeatsItsWarmupInBalancedBlocks(t *testing.T) {
	_, w := stream(t, "warm-solve", 3, 0)
	if len(w.warmup) != 6 || w.clients != 2 {
		t.Fatalf("warm-solve: %d configs, %d clients; want 6 and 2", len(w.warmup), w.clients)
	}
	comp := 0
	for _, q := range w.warmup {
		if q.Problem == "comp" {
			comp++
			if q.FixedTheta != cimTheta {
				t.Errorf("CompInfMax config without fixedTheta %d: %+v", cimTheta, q)
			}
		}
		if len(q.opposite()) != oppositeSize || q.EvalRuns != warmEvalRuns {
			t.Errorf("config %+v", q)
		}
	}
	if comp != 2 {
		t.Errorf("%d CompInfMax configs, want one per dataset", comp)
	}
	for block := 0; block < 20; block++ {
		seen := map[int]bool{}
		for i := 0; i < 6; i++ {
			o := w.next()
			if seen[o.Config] {
				t.Fatalf("block %d repeats config %d", block, o.Config)
			}
			seen[o.Config] = true
			if fmt.Sprint(o.Solve) != fmt.Sprint(w.warmup[o.Config]) {
				t.Fatalf("op %d is not its config's warm-up solve", o.ID)
			}
		}
	}
}

func TestColdSolveNeverRepeatsAKey(t *testing.T) {
	_, w := stream(t, "cold-solve", 4, 0)
	keys := map[string]bool{}
	perDataset := map[string]int{}
	for i := 0; i < 400; i++ {
		o := w.next()
		q := o.Solve
		if want := i%4 == 3; (q.Problem == "comp") != want {
			t.Fatalf("op %d is %q; every fourth op must be CompInfMax", i, q.Problem)
		}
		if q.Problem == "comp" {
			perDataset[q.Dataset]++
		}
		k := fmt.Sprint(q.Dataset, q.opposite(), q.Seed)
		if keys[k] {
			t.Fatalf("op %d repeats an (opposite set, master seed) pair", i)
		}
		keys[k] = true
	}
	if perDataset[flixster] != 50 || perDataset[doubanBook] != 50 {
		t.Errorf("CompInfMax ops per dataset = %v, want 50 each", perDataset)
	}
}

func TestPatchStreamReweightsDistinctEdgesInOrder(t *testing.T) {
	ds, err := loadDatasets()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload("patch-stream", 5, ds)
	if err != nil {
		t.Fatal(err)
	}
	g := ds[flixster].Graph
	for i := 0; i < 100; i++ {
		o := w.next()
		if o.Patch == nil || o.Patch.IfGeneration != int64(i) || len(o.Patch.Updates) != patchEdges {
			t.Fatalf("op %d: patch %+v", i, o.Patch)
		}
		if fmt.Sprint(o.Solve) != fmt.Sprint(w.warmup[0]) {
			t.Fatalf("op %d does not repeat the warmed solve", i)
		}
		seen := map[[2]int32]bool{}
		for _, u := range o.Patch.Updates {
			if _, ok := g.FindEdge(u.U, u.V); !ok || u.Op != "reweight" || u.P < 0.01 || u.P > 0.99 {
				t.Fatalf("op %d: bad update %+v", i, u)
			}
			if seen[[2]int32{u.U, u.V}] {
				t.Fatalf("op %d reweights edge %d->%d twice", i, u.U, u.V)
			}
			seen[[2]int32{u.U, u.V}] = true
		}
	}
}

func TestStripElapsed(t *testing.T) {
	body := []byte(`{"seeds":[1,2],"candidates":[{"name":"upper"}],"elapsedMs":12.5}` + "\n")
	want := `{"seeds":[1,2],"candidates":[{"name":"upper"}]}` + "\n"
	if got := string(stripElapsed(body)); got != want {
		t.Errorf("stripElapsed = %q, want %q", got, want)
	}
	if got := string(stripElapsed([]byte(`{"a":1}`))); got != `{"a":1}` {
		t.Errorf("stripElapsed without the field = %q", got)
	}
}

func TestCanonicalAnswerIgnoresWhatTheRequestDoesNotDetermine(t *testing.T) {
	a, err := canonicalAnswer([]byte(`{"dataset":"Flixster","graph":{"created":"x"},"seeds":[3,1],"objective":116.372,"chosen":"upper","candidates":[{"name":"upper","seeds":[3,1],"objective":116.372,"theta":12133}],"elapsedMs":9}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalAnswer([]byte(`{"graph":{"created":"y"},"seeds":[3,1],"objective":116.372,"chosen":"upper","candidates":[{"name":"upper","seeds":[3,1],"objective":116.372,"theta":12133}],"elapsedMs":41}`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("canonical answers differ:\n%s\n%s", a, b)
	}
	c, err := canonicalAnswer([]byte(`{"seeds":[3,1],"objective":116.373,"chosen":"upper","candidates":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("a different objective gave the same canonical answer")
	}
}
