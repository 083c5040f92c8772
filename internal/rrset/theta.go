package rrset

import (
	"math"

	"comic/internal/rng"
)

// Lambda computes λ of Eq. 3:
//
//	λ = (8 + 2ε) n (ℓ ln n + ln C(n,k) + ln 2) / ε²
//
// Natural logarithms follow TIM [24].
func Lambda(n, k int, eps, ell float64) float64 {
	if n < 2 {
		return 1
	}
	// Clamp k into [0, n]: C(n, k) is undefined outside it, and lnChoose's
	// silent 0 for k > n would understate λ relative to the intended
	// "select everything" budget. Callers reject or clamp k > n themselves
	// (the server with a 400, BuildCollection by clamping), so this only
	// guards direct library misuse.
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	return (8 + 2*eps) * float64(n) *
		(ell*math.Log(float64(n)) + lnChoose(n, k) + math.Ln2) / (eps * eps)
}

// lnChoose returns ln C(n, k) via log-gamma.
func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	ln := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return ln(n) - ln(k) - ln(n-k)
}

// EstimateKPT implements TIM's KptEstimation (Algorithm 2 of [24]) on top of
// a generic RR-set generator: KPT lower-bounds OPT_k with high probability
// using the estimator κ(R) = 1 − (1 − ω(R)/m)^k over geometrically growing
// batches. Returns at least 1.
//
// Each batch runs through rng.Streams on up to `workers` generator clones
// (0 means GOMAXPROCS), one per worker, kept across batches. Probe j of the
// whole estimation always draws random stream j of seed and the κ values
// are accumulated in probe order, so the estimate is bitwise identical for
// every worker count. Exploration counters from all clones are folded into
// gen's.
func EstimateKPT(gen Generator, m, k int, ell float64, seed uint64, workers int) float64 {
	n := gen.N()
	if n < 2 || m == 0 {
		return 1
	}
	log2n := math.Log2(float64(n))
	batchBase := 6*ell*math.Log(float64(n)) + 6*math.Log(log2n)

	clones := make([]Generator, rng.Workers(workers, math.MaxInt))
	defer addCounters(gen, clones)
	var kappas []float64
	first := 0
	for i := 1; i < int(log2n); i++ {
		ci := int(math.Ceil(batchBase * math.Pow(2, float64(i))))
		if cap(kappas) < ci {
			kappas = make([]float64, ci)
		}
		kappas = kappas[:ci]
		// Probe j stores κ(R) of the set it samples in kappas[j-first].
		rng.Streams(workers, first, ci, seed, func(w int) func(int, *rng.RNG) {
			if clones[w] == nil {
				clones[w] = gen.Clone()
			}
			cl := clones[w]
			var set RRSet
			return func(j int, r *rng.RNG) {
				cl.Generate(int32(r.Intn(n)), r, &set)
				kappas[j-first] = 1 - math.Pow(1-float64(set.Width)/float64(m), float64(k))
			}
		})
		first += ci
		// Sum in probe order: float addition is order-dependent, and the
		// estimate must not depend on the worker count.
		sum := 0.0
		for _, kp := range kappas {
			sum += kp
		}
		if sum/float64(ci) > 1/math.Pow(2, float64(i)) {
			return math.Max(1, float64(n)*sum/(2*float64(ci)))
		}
	}
	return 1
}

// Theta returns the RR-set budget θ = ⌈λ / KPT⌉ clamped to [1, maxTheta]
// (to [1, MaxInt] when maxTheta ≤ 0). The clamp happens before the
// conversion to int, so a ratio past the int range, or a λ that overflowed
// to +Inf under a tiny ε, still yields the cap.
func Theta(lambda, kpt float64, maxTheta int) int {
	if kpt < 1 {
		kpt = 1
	}
	limit := math.MaxInt
	if maxTheta > 0 {
		limit = maxTheta
	}
	switch t := math.Ceil(lambda / kpt); {
	case t >= float64(limit):
		return limit
	case t >= 1:
		return int(t)
	default: // also NaN
		return 1
	}
}
