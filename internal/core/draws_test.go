package core

import (
	"math"
	"reflect"
	"testing"

	"comic/internal/graph"
	"comic/internal/rng"
)

// readDraws reads the draws of every step-th edge and node of g, each coin
// and threshold twice, and returns the values in read order.
func readDraws(d *Draws, g *graph.Graph, step int32) []float64 {
	var out []float64
	bit := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for eid := int32(0); eid < int32(g.M()); eid += step {
		out = append(out, bit(d.EdgeLive(eid)), d.Rank(eid), bit(d.EdgeLive(eid)))
	}
	for v := int32(0); v < int32(g.N()); v += step {
		out = append(out, d.Alpha(v, A), d.Alpha(v, B), d.Alpha(v, B), d.Alpha(v, A),
			float64(d.SeedFirst(v)))
	}
	return out
}

// TestDrawsEpochWrap runs one Draws across its epoch wrap, comparing each
// run's draws with what a fresh Draws reads from the same stream. Before
// the wrap, a run at epoch 1 reads every draw; the two runs just below the
// wrap read only even-indexed ones, so the odd-indexed memo words still
// carry epoch 1 when the epoch restarts at 1. Every run after the wrap must
// match the fresh Draws: no memo word written before the reset may be read
// after it.
func TestDrawsEpochWrap(t *testing.T) {
	g := graph.ErdosRenyi(40, 200, rng.New(3))
	graph.AssignUniform(g, 0.5)
	d := NewDraws(g, 2)
	d.Begin(rng.NewStream(5, 0))
	readDraws(&d, g, 1)
	d.epoch = wrapEpoch - 3
	for run := uint64(0); run < 6; run++ {
		step := int32(1)
		if run < 2 {
			step = 2
		}
		fresh := NewDraws(g, 2)
		fresh.Begin(rng.NewStream(7, run))
		d.Begin(rng.NewStream(7, run))
		if got, want := readDraws(&d, g, step), readDraws(&fresh, g, step); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (epoch %d): draws differ from a fresh Draws on the same stream", run, d.epoch)
		}
	}
	if d.epoch != 4 {
		t.Fatalf("epoch %d after the wrap, want 4", d.epoch)
	}
}

// TestSimulatorEpochWrap does the same for the simulator's node-state and
// seed stamps, which wrap at 2^32 runs on their own epoch. A run at epoch 1
// stamps the seeds and the nodes they reach; the two runs just below the
// wrap start from other seeds. After the wrap, every run's counts and final
// states must equal a fresh simulator's on the same stream.
func TestSimulatorEpochWrap(t *testing.T) {
	g := graph.ErdosRenyi(40, 200, rng.New(3))
	graph.AssignUniform(g, 0.3)
	gap := GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}
	outcome := func(s *Simulator, seedsA, seedsB []int32, r *rng.RNG) []int {
		ca, cb := s.Run(seedsA, seedsB, r)
		out := []int{ca, cb}
		for v := int32(0); v < int32(g.N()); v++ {
			out = append(out, int(s.StateOf(v, A)), int(s.StateOf(v, B)))
		}
		return out
	}
	seedsA, seedsB := []int32{0, 1, 2}, []int32{2, 3}
	sim := NewSimulator(g, gap)
	outcome(sim, seedsA, seedsB, rng.NewStream(5, 0))
	sim.epoch = math.MaxUint32 - 2
	for run := uint64(0); run < 6; run++ {
		a, b := seedsA, seedsB
		if run < 2 {
			a, b = []int32{20}, []int32{21}
		}
		want := outcome(NewSimulator(g, gap), a, b, rng.NewStream(7, run))
		if got := outcome(sim, a, b, rng.NewStream(7, run)); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (epoch %d): %v, want %v", run, sim.epoch, got, want)
		}
	}
	if sim.epoch != 4 {
		t.Fatalf("epoch %d after the wrap, want 4", sim.epoch)
	}
}
