// Package montecarlo estimates Com-IC influence spreads by parallel
// Monte-Carlo simulation. The paper evaluates all seed sets with 10K-run
// Monte-Carlo estimates (§7.3); this package reproduces that evaluator with
// results that are bit-for-bit independent of the number of workers: every
// batch of runs goes through rng.Streams, so run i always draws from stream
// i of the master seed, and each worker's exact accumulator is merged in
// worker order.
package montecarlo

import (
	"math"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// Estimator runs batches of Com-IC simulations for one (graph, GAP)
// instance. Its methods never mutate the Estimator, so concurrent calls are
// safe: each call runs its own rng.Streams workers, and each worker reuses
// one simulator, one RNG (reseeded to stream i for run i) and, for the
// paired estimators, one possible world (resampled in place) across its
// runs.
type Estimator struct {
	g   *graph.Graph
	gap core.GAP
	// Workers is the number of parallel simulators; 0 means GOMAXPROCS.
	Workers int
}

// New returns an Estimator for g under gap.
func New(g *graph.Graph, gap core.GAP) *Estimator {
	return &Estimator{g: g, gap: gap}
}

// Result summarizes a batch of simulation runs.
type Result struct {
	MeanA, MeanB     float64 // sample means of A-/B-adopted counts
	StderrA, StderrB float64 // standard errors of the means
	Runs             int
}

// shiftedAcc accumulates first and second moments of integer-valued samples
// (adoption counts, paired-run differences) around a shift equal to the
// accumulator's first sample. Because samples, shifts, and therefore every
// stored quantity are integers representable in float64, accumulation and
// merging are exact (below 2^53), which gives two properties at once:
//
//   - merging per-worker accumulators is independent of how samples were
//     partitioned across workers, so estimates stay bit-for-bit identical
//     for every worker count; and
//   - the variance formula subtracts quantities of the order of the
//     *centered* second moment, not the raw one. The naive Σx² − n·mean²
//     form catastrophically cancels when mean² ≫ variance (large spreads
//     with small noise): the subtraction of two ~n·mean² terms leaves only
//     rounding error, which can come out ≤ 0 and report a standard error
//     of exactly 0 for an estimate that does have noise.
type shiftedAcc struct {
	n     int64
	shift float64 // first sample; all moments are relative to it
	sum   float64 // Σ (x − shift)
	sum2  float64 // Σ (x − shift)²
}

// add folds one sample into the accumulator.
func (a *shiftedAcc) add(x float64) {
	if a.n == 0 {
		a.shift = x
	}
	d := x - a.shift
	a.n++
	a.sum += d
	a.sum2 += d * d
}

// merge folds b into a, re-expressing b's moments around a's shift. All
// terms are sums and products of integers, so the merge is exact and the
// result does not depend on how samples were split between a and b.
func (a *shiftedAcc) merge(b shiftedAcc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	dk := b.shift - a.shift
	a.sum2 += b.sum2 + 2*dk*b.sum + float64(b.n)*dk*dk
	a.sum += b.sum + float64(b.n)*dk
	a.n += b.n
}

// mean returns the sample mean. shift·n + sum reconstructs the exact
// integer Σx, so the result is identical to a direct (exact) summation.
func (a *shiftedAcc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return (a.shift*float64(a.n) + a.sum) / float64(a.n)
}

// stderr returns the standard error of the mean from the unbiased sample
// variance (Σd² − (Σd)²/n)/(n−1), computed on shifted values where no
// catastrophic cancellation can occur: both terms are of the order of the
// centered second moment. The clamp to 0 only absorbs the final division's
// last-ulp rounding, not a sign flip from cancellation.
func (a *shiftedAcc) stderr() float64 {
	if a.n < 2 {
		return 0
	}
	n := float64(a.n)
	v := (a.sum2 - a.sum*a.sum/n) / (n - 1)
	return math.Sqrt(math.Max(v, 0) / n)
}

// Estimate runs `runs` independent simulations seeded from master seed and
// returns spread statistics. Results are deterministic in (runs, seed) and
// independent of worker count and scheduling.
func (e *Estimator) Estimate(seedsA, seedsB []int32, runs int, seed uint64) Result {
	if runs <= 0 {
		return Result{}
	}
	type acc struct{ a, b shiftedAcc }
	accs := make([]acc, rng.Workers(e.Workers, runs))
	rng.Streams(e.Workers, 0, runs, seed, func(w int) func(int, *rng.RNG) {
		sim := core.NewSimulator(e.g, e.gap)
		a := &accs[w]
		return func(_ int, r *rng.RNG) {
			ca, cb := sim.Run(seedsA, seedsB, r)
			a.a.add(float64(ca))
			a.b.add(float64(cb))
		}
	})
	var tA, tB shiftedAcc
	for _, a := range accs {
		tA.merge(a.a)
		tB.merge(a.b)
	}
	return Result{
		MeanA: tA.mean(), StderrA: tA.stderr(),
		MeanB: tB.mean(), StderrB: tB.stderr(),
		Runs: runs,
	}
}

// SpreadA returns the estimated σ_A(seedsA, seedsB).
func (e *Estimator) SpreadA(seedsA, seedsB []int32, runs int, seed uint64) float64 {
	return e.Estimate(seedsA, seedsB, runs, seed).MeanA
}

// SpreadB returns the estimated σ_B(seedsA, seedsB).
func (e *Estimator) SpreadB(seedsA, seedsB []int32, runs int, seed uint64) float64 {
	return e.Estimate(seedsA, seedsB, runs, seed).MeanB
}

// Boost estimates σ_A(S_A, S_B) − σ_A(S_A, ∅), the CompInfMax objective
// (Problem 2), with independent runs for the two terms.
func (e *Estimator) Boost(seedsA, seedsB []int32, runs int, seed uint64) float64 {
	with := e.SpreadA(seedsA, seedsB, runs, seed)
	without := e.SpreadA(seedsA, nil, runs, seed^0x9e3779b97f4a7c15)
	return with - without
}

// BoostPaired estimates the boost with common random numbers: each run
// samples one possible world and executes the deterministic cascade twice,
// with and without the B seeds. The difference estimator has much lower
// variance than two independent estimates because world noise cancels
// (ablation: see montecarlo tests). Returns the mean and its standard error.
func (e *Estimator) BoostPaired(seedsA, seedsB []int32, runs int, seed uint64) (mean, stderr float64) {
	return e.boostPaired(seedsA, seedsB, nil, runs, seed)
}

// PairedBaselineA returns run i's A-adopted count with S_B = ∅ on the
// common-random-number world of stream i — the baseline half of the
// BoostPaired estimator. Callers that evaluate many B-seed candidates
// against one fixed S_A (the CompInfMax greedy) compute it once and pass
// it to BoostPairedFromBaseline, instead of re-simulating the identical
// baseline cascade inside every evaluation.
func (e *Estimator) PairedBaselineA(seedsA []int32, runs int, seed uint64) []int32 {
	if runs <= 0 {
		return nil
	}
	baseline := make([]int32, runs)
	rng.Streams(e.Workers, 0, runs, seed, func(int) func(int, *rng.RNG) {
		sim := core.NewSimulator(e.g, e.gap)
		var world core.World
		return func(i int, r *rng.RNG) {
			world.Resample(e.g, r)
			sim.SetWorld(&world)
			withoutB, _ := sim.Run(seedsA, nil, nil)
			baseline[i] = int32(withoutB)
		}
	})
	return baseline
}

// BoostPairedFromBaseline is BoostPaired with the S_B = ∅ half supplied by
// a prior PairedBaselineA call for the same (seedsA, runs, seed). The
// result is bit-for-bit identical to BoostPaired — same worlds, same
// per-run differences, same merge order — at half the simulation cost.
func (e *Estimator) BoostPairedFromBaseline(seedsA, seedsB, baseline []int32, runs int, seed uint64) (mean, stderr float64) {
	return e.boostPaired(seedsA, seedsB, baseline, runs, seed)
}

func (e *Estimator) boostPaired(seedsA, seedsB, baseline []int32, runs int, seed uint64) (mean, stderr float64) {
	accs := make([]shiftedAcc, rng.Workers(e.Workers, runs))
	rng.Streams(e.Workers, 0, runs, seed, func(w int) func(int, *rng.RNG) {
		sim := core.NewSimulator(e.g, e.gap)
		var world core.World
		a := &accs[w]
		return func(i int, r *rng.RNG) {
			world.Resample(e.g, r)
			sim.SetWorld(&world)
			withB, _ := sim.Run(seedsA, seedsB, nil)
			var withoutB int
			if baseline != nil {
				withoutB = int(baseline[i])
			} else {
				withoutB, _ = sim.Run(seedsA, nil, nil)
			}
			a.add(float64(withB - withoutB))
		}
	})
	var t shiftedAcc
	for _, a := range accs {
		t.merge(a)
	}
	return t.mean(), t.stderr()
}
