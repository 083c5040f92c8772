package main

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"comic/internal/server"
)

// TestReplayReproducesServerAnswers drives an in-process server with a few
// ops of each workload and checks that the replay, the reference of the
// untraced run, computes byte-identical answers and patch outcomes; and
// that a tampered answer is caught.
func TestReplayReproducesServerAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("solves on both datasets")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ds, err := loadDatasets()
			if err != nil {
				t.Fatal(err)
			}
			w, err := newWorkload(name, 11, ds)
			if err != nil {
				t.Fatal(err)
			}
			s, err := server.New(server.Config{Datasets: ds, CacheBytes: cacheBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s)
			defer ts.Close()
			c := newClient(w.clients)

			var warm [][]byte
			for _, q := range w.warmup {
				r := doOp(c, ts.URL, op{Solve: q})
				if r.err != nil {
					t.Fatal(r.err)
				}
				warm = append(warm, stripElapsed(r.body))
			}
			var ops []opResult
			for i := 0; i < 3; i++ {
				r := doOp(c, ts.URL, w.next())
				if r.err != nil {
					t.Fatal(r.err)
				}
				if r.latency < r.solveLatency || r.serverMs <= 0 {
					t.Errorf("op %d: latency %v, solve latency %v, server %vms", i, r.latency, r.solveLatency, r.serverMs)
				}
				ops = append(ops, r)
			}
			outs, rs := replay(ds, w, ops, newTracer())
			if rs.allocBytes == 0 || rs.totalCPU <= 0 {
				t.Errorf("replay stats %+v", rs)
			}
			lr := &loadRun{ops: ops, warmBodies: warm}
			var stderr bytes.Buffer
			if failed := check(lr, outs, &stderr); failed != 0 {
				t.Fatalf("%d ops differ from the replay: %s", failed, stderr.String())
			}

			tampered := *lr
			tampered.ops = append([]opResult(nil), ops...)
			tampered.ops[1].body = bytes.Replace(ops[1].body, []byte(`"objective":`), []byte(`"objective":1`), 1)
			if failed := check(&tampered, outs, &stderr); failed != 1 {
				t.Errorf("a tampered answer gave %d failures, want 1", failed)
			}
		})
	}
}
