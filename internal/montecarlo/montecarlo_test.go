package montecarlo

import (
	"math"
	"testing"

	"comic/internal/core"
	"comic/internal/exact"
	"comic/internal/graph"
	"comic/internal/rng"
)

var testGAP = core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.4, QBA: 0.9}

// TestWorkerCountInvariance pins every estimator to bit-identical output
// at any worker count: run i draws stream i whichever worker runs it, and
// the per-worker accumulators merge exactly.
func TestWorkerCountInvariance(t *testing.T) {
	g := graph.PowerLaw(300, 6, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	sa, sb := []int32{0, 1}, []int32{2}
	const runs, seed = 500, 99
	baseline := New(g, testGAP).PairedBaselineA(sa, runs, seed)
	// Each case returns its outputs' bits: means and stderrs, or the
	// per-run baseline counts.
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		call func(e *Estimator) []uint64
	}{
		{"Estimate", func(e *Estimator) []uint64 {
			r := e.Estimate(sa, sb, runs, seed)
			return bits(r.MeanA, r.MeanB, r.StderrA, r.StderrB)
		}},
		{"PairedBaselineA", func(e *Estimator) []uint64 {
			var out []uint64
			for _, c := range e.PairedBaselineA(sa, runs, seed) {
				out = append(out, uint64(c))
			}
			return out
		}},
		{"BoostPaired", func(e *Estimator) []uint64 {
			return bits(e.BoostPaired(sa, sb, runs, seed))
		}},
		{"BoostPairedFromBaseline", func(e *Estimator) []uint64 {
			return bits(e.BoostPairedFromBaseline(sa, sb, baseline, runs, seed))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref []uint64
			for _, workers := range []int{1, 2, 3, 7} {
				e := New(g, testGAP)
				e.Workers = workers
				got := tc.call(e)
				if ref == nil {
					ref = got
					continue
				}
				if len(got) != len(ref) {
					t.Fatalf("workers=%d: %d outputs, want %d", workers, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("workers=%d: output %d bits %x, want workers=1's %x", workers, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

func TestEstimateMatchesExact(t *testing.T) {
	g := graph.ErdosRenyi(5, 5, rng.New(7))
	graph.AssignUniform(g, 0.6)
	gap := core.GAP{QA0: 0.4, QAB: 0.9, QB0: 0.5, QBA: 0.8}
	want, err := exact.New(g, gap).Eval([]int32{0}, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, gap)
	res := e.Estimate([]int32{0}, []int32{1}, 60000, 13)
	if math.Abs(res.MeanA-want.SigmaA) > 4*res.StderrA+0.01 {
		t.Fatalf("MC σA = %v ± %v, exact %v", res.MeanA, res.StderrA, want.SigmaA)
	}
	if math.Abs(res.MeanB-want.SigmaB) > 4*res.StderrB+0.01 {
		t.Fatalf("MC σB = %v ± %v, exact %v", res.MeanB, res.StderrB, want.SigmaB)
	}
}

func TestZeroRuns(t *testing.T) {
	g := graph.Path(3, 1)
	e := New(g, testGAP)
	if res := e.Estimate([]int32{0}, nil, 0, 1); res.MeanA != 0 || res.Runs != 0 {
		t.Fatalf("zero runs produced %+v", res)
	}
	if m, s := e.BoostPaired([]int32{0}, []int32{1}, 0, 1); m != 0 || s != 0 {
		t.Fatal("zero-run BoostPaired should return zeros")
	}
}

func TestSingleRunNoStderr(t *testing.T) {
	g := graph.Path(3, 1)
	e := New(g, core.GAP{QA0: 1, QAB: 1})
	res := e.Estimate([]int32{0}, nil, 1, 5)
	if res.MeanA != 3 {
		t.Fatalf("deterministic path spread %v", res.MeanA)
	}
	if res.StderrA != 0 {
		t.Fatalf("single run must have zero stderr, got %v", res.StderrA)
	}
}

func TestSpreadAccessors(t *testing.T) {
	g := graph.Path(4, 1)
	e := New(g, core.GAP{QA0: 1, QAB: 1, QB0: 1, QBA: 1})
	if got := e.SpreadA([]int32{0}, nil, 10, 1); got != 4 {
		t.Fatalf("SpreadA = %v", got)
	}
	if got := e.SpreadB(nil, []int32{2}, 10, 1); got != 2 {
		t.Fatalf("SpreadB = %v", got)
	}
}

func TestBoostMatchesExact(t *testing.T) {
	// Mutual complementarity: B seeds near the A seed raise A's spread.
	g := graph.Path(5, 0.9)
	gap := core.GAP{QA0: 0.2, QAB: 0.9, QB0: 0.9, QBA: 1}
	sa, sb := []int32{0}, []int32{0}
	with, err := exact.SigmaA(g, gap, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	without, err := exact.SigmaA(g, gap, sa, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := with - without
	if want <= 0 {
		t.Fatalf("test instance has no boost (%v)", want)
	}
	e := New(g, gap)
	indep := e.Boost(sa, sb, 60000, 3)
	paired, stderr := e.BoostPaired(sa, sb, 30000, 4)
	if math.Abs(indep-want) > 0.05 {
		t.Fatalf("independent boost %v, want %v", indep, want)
	}
	if math.Abs(paired-want) > 4*stderr+0.02 {
		t.Fatalf("paired boost %v ± %v, want %v", paired, stderr, want)
	}
}

func TestPairedBoostVarianceReduction(t *testing.T) {
	// Ablation (DESIGN.md §6): with common random numbers the boost
	// estimator's variance per run is far below the independent-runs
	// variance, which is dominated by world noise.
	g := graph.PowerLaw(400, 6, 2.16, true, rng.New(9))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.2, QAB: 0.9, QB0: 0.6, QBA: 0.9}
	e := New(g, gap)
	sa := []int32{0, 1, 2}
	sb := []int32{0, 1, 2}
	const runs = 2000
	_, pairedStderr := e.BoostPaired(sa, sb, runs, 11)
	resWith := e.Estimate(sa, sb, runs, 12)
	resWithout := e.Estimate(sa, nil, runs, 13)
	indepStderr := math.Sqrt(resWith.StderrA*resWith.StderrA + resWithout.StderrA*resWithout.StderrA)
	if pairedStderr >= indepStderr {
		t.Fatalf("paired stderr %v not below independent stderr %v", pairedStderr, indepStderr)
	}
}

// TestShiftedAccLargeMagnitude is the regression test for the variance
// numerics: with samples of magnitude ~1e8 and variance ~0.25, the naive
// Σx² − n·mean² form cancels catastrophically — the difference of two
// ~1e20 terms is pure rounding noise, which max(var, 0) then masks as a
// standard error of exactly 0. The shifted accumulator must recover the
// true variance to full precision.
func TestShiftedAccLargeMagnitude(t *testing.T) {
	const base = 1e8
	const n = 10000
	var a shiftedAcc
	var sum, sum2 float64 // the old accumulation, replicated as the foil
	for i := 0; i < n; i++ {
		x := base + float64(i%2) // alternating base, base+1: variance 0.25…ish
		a.add(x)
		sum += x
		sum2 += x * x
	}
	naiveMean := sum / n
	naiveVar := (sum2 - n*naiveMean*naiveMean) / (n - 1)
	if naiveVar > 0.1 {
		t.Fatalf("naive variance %v did not cancel; the regression foil is miscalibrated", naiveVar)
	}
	wantVar := 0.25 * float64(n) / float64(n-1) // Σ(x−x̄)² = n/4 exactly here
	gotVar := a.stderr() * a.stderr() * n
	if math.Abs(gotVar-wantVar) > 1e-9*wantVar {
		t.Fatalf("shifted variance = %v, want %v", gotVar, wantVar)
	}
	if a.mean() != naiveMean {
		// Means are exact integer sums either way; they must agree bitwise.
		t.Fatalf("shifted mean %v != direct mean %v", a.mean(), naiveMean)
	}
}

// TestShiftedAccMergePartitionInvariance pins the worker-independence claim:
// merging per-worker accumulators yields bit-identical moments no matter how
// the sample stream was partitioned, because every merge step is exact
// integer arithmetic in float64.
func TestShiftedAccMergePartitionInvariance(t *testing.T) {
	r := rng.New(5)
	samples := make([]float64, 997)
	for i := range samples {
		samples[i] = float64(1e7 + r.Intn(1000))
	}
	var ref shiftedAcc
	for _, x := range samples {
		ref.add(x)
	}
	for _, workers := range []int{2, 3, 7, 64} {
		accs := make([]shiftedAcc, workers)
		for i, x := range samples {
			accs[i%workers].add(x)
		}
		var merged shiftedAcc
		for _, a := range accs {
			merged.merge(a)
		}
		if merged.mean() != ref.mean() || merged.stderr() != ref.stderr() {
			t.Fatalf("partition into %d workers changed the moments: mean %v/%v stderr %v/%v",
				workers, merged.mean(), ref.mean(), merged.stderr(), ref.stderr())
		}
	}
}

// TestEstimateStderrNonzeroWithLargeCounts drives the fix end to end: a
// near-deterministic cascade over a large clique-free star (spread ≈ n with
// one coin-flip leaf) must report a small positive standard error, not 0.
func TestEstimateStderrNonzeroWithLargeCounts(t *testing.T) {
	const leaves = 4000
	b := graph.NewBuilder(leaves + 2)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, int32(i), 1) // deterministic bulk of the spread
	}
	b.AddEdge(0, leaves+1, 0.5) // the only stochastic node
	g := b.MustBuild()
	e := New(g, core.GAP{QA0: 1, QAB: 1, QB0: 1, QBA: 1})
	res := e.Estimate([]int32{0}, nil, 2000, 3)
	if res.MeanA < leaves || res.MeanA > leaves+2 {
		t.Fatalf("star spread = %v, want ≈%d", res.MeanA, leaves+1)
	}
	if res.StderrA <= 0 || res.StderrA > 0.05 {
		t.Fatalf("stderr = %v, want small but strictly positive (≈0.011)", res.StderrA)
	}
}

// TestMonteCarloAllocsIndependentOfRuns pins that the estimators allocate
// per call, not per run: each worker reuses one simulator, one RNG and one
// possible world across its runs. Every edge is live and every GAP is 1, so
// every run's cascade has the same size and the simulator's scratch grows
// the same way at any run count.
func TestMonteCarloAllocsIndependentOfRuns(t *testing.T) {
	g := graph.PowerLaw(100, 4, 2.16, true, rng.New(5))
	graph.AssignUniform(g, 1)
	e := New(g, core.GAP{QA0: 1, QAB: 1, QB0: 1, QBA: 1})
	e.Workers = 1
	sa, sb := []int32{0, 1}, []int32{2}
	for _, est := range []struct {
		name string
		call func(runs int)
	}{
		{"Estimate", func(runs int) { e.Estimate(sa, sb, runs, 7) }},
		{"BoostPaired", func(runs int) { e.BoostPaired(sa, sb, runs, 7) }},
		{"PairedBaselineA", func(runs int) { e.PairedBaselineA(sa, runs, 7) }},
	} {
		few := testing.AllocsPerRun(3, func() { est.call(64) })
		many := testing.AllocsPerRun(3, func() { est.call(512) })
		if few != many {
			t.Errorf("%s: %v allocations at 64 runs, %v at 512", est.name, few, many)
		}
	}
}

func BenchmarkEstimate10K(b *testing.B) {
	g := graph.PowerLaw(2000, 8, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	e := New(g, testGAP)
	sa, sb := []int32{0, 1, 2, 3, 4}, []int32{5, 6, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Estimate(sa, sb, 10000, uint64(i))
	}
}

func BenchmarkBoostPaired(b *testing.B) {
	g := graph.PowerLaw(2000, 8, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	e := New(g, testGAP)
	sa, sb := []int32{0, 1, 2, 3, 4}, []int32{5, 6, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BoostPaired(sa, sb, 1000, uint64(i))
	}
}

// TestBoostPairedFromBaselineBitIdentical pins the baseline-cached paired
// estimator against BoostPaired: same worlds, same per-run differences,
// same merge order — the mean and stderr must match bit for bit, for every
// worker count.
func TestBoostPairedFromBaselineBitIdentical(t *testing.T) {
	g := graph.PowerLaw(200, 5, 2.16, true, rng.New(4))
	graph.AssignWeightedCascade(g)
	gap := core.GAP{QA0: 0.3, QAB: 0.9, QB0: 0.8, QBA: 0.3}
	seedsA := []int32{0, 1}
	const runs, seed = 500, 99
	for _, workers := range []int{1, 3, 8} {
		est := New(g, gap)
		est.Workers = workers
		baseline := est.PairedBaselineA(seedsA, runs, seed)
		for _, sb := range [][]int32{{2}, {3, 7}, {5, 9, 11}} {
			wantMean, wantErr := est.BoostPaired(seedsA, sb, runs, seed)
			gotMean, gotErr := est.BoostPairedFromBaseline(seedsA, sb, baseline, runs, seed)
			if gotMean != wantMean || gotErr != wantErr {
				t.Fatalf("workers=%d sb=%v: from-baseline (%v, %v) != paired (%v, %v)",
					workers, sb, gotMean, gotErr, wantMean, wantErr)
			}
		}
	}
}
