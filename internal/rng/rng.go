// Package rng provides a small, fast, deterministic random number generator
// used throughout the library.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every simulation, possible world, and RR-set must be regenerable from a
// single seed regardless of scheduling. Item i of a batch (a Monte-Carlo
// run, a KPT probe, an RR set) therefore draws stream i of the batch's
// master seed, the state NewStream(seed, i) constructs, and Streams runs a
// batch on parallel workers that each reseed one generator to item i's
// stream before item i, so no draw depends on goroutine interleaving or on
// the worker count.
package rng

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// RNG is a PCG-XSH-RR 64/32-inspired generator with a 64-bit state and a
// 64-bit odd increment selecting the stream. The zero value is NOT usable;
// construct with New or NewStream, or reseed it with Reseed or ReseedStream.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// splitMix64 is used for seeding and stream derivation.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the deterministic state derived from seed.
func (r *RNG) Reseed(seed uint64) {
	r.state = splitMix64(seed)
	r.inc = splitMix64(seed^0xda3e39cb94b95bdb) | 1
	r.Uint64()
}

// Split derives an independent stream identified by index i of the
// generator's current state. Splitting the same state with the same index
// always yields the same stream. Batches of seeded items use NewStream's
// streams through Streams instead.
func (r *RNG) Split(i uint64) *RNG {
	child := &RNG{
		state: splitMix64(r.state ^ splitMix64(i)),
		inc:   splitMix64(r.inc^splitMix64(i^0xa0761d6478bd642f)) | 1,
	}
	child.Uint64()
	return child
}

// NewStream returns the i-th independent stream of the master seed without
// constructing an intermediate generator.
func NewStream(seed, i uint64) *RNG {
	r := &RNG{}
	r.ReseedStream(seed, i)
	return r
}

// ReseedStream resets r to exactly the state NewStream(seed, i) constructs,
// letting hot loops reuse one generator across streams instead of
// allocating a fresh RNG per stream (one per RR set during generation).
func (r *RNG) ReseedStream(seed, i uint64) {
	r.Reseed(splitMix64(seed) ^ splitMix64(i*0x9e3779b97f4a7c15+1))
}

// Workers returns the number of goroutines Streams runs a batch of count
// items on: workers, or GOMAXPROCS when workers <= 0, capped at count (and
// 0 when count <= 0). Callers size per-worker arrays with it.
func Workers(workers, count int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, count), 0)
}

// Streams runs items first … first+count−1 of a batch on W =
// Workers(workers, count) goroutines (inline when W is 1) and returns when
// all have run. Worker w builds its per-item function once, with
// newWorker(w), and runs items first+w, first+w+W, … in increasing order,
// reseeding its one RNG to stream i of seed before item i. Which worker
// runs an item depends only on (workers, count), so results written to
// slot i, or folded into per-worker accumulators merged in worker order,
// do not depend on scheduling.
func Streams(workers, first, count int, seed uint64, newWorker func(w int) func(i int, r *RNG)) {
	w := Workers(workers, count)
	run := func(wi int) {
		item := newWorker(wi)
		var r RNG
		for i := first + wi; i < first+count; i += w {
			r.ReseedStream(seed, uint64(i))
			item(i, &r)
		}
	}
	if w == 1 {
		run(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for wi := range w {
		go func() {
			defer wg.Done()
			run(wi)
		}()
	}
	wg.Wait()
}

// Uint64 returns the next 64 pseudo-random bits: two rounds of
// PCG-XSH-RR 64/32 glued together, the first round's output high. It
// advances the state twice with one load and one store, which keeps it
// (and Float64) within the compiler's inlining budget.
func (r *RNG) Uint64() uint64 {
	s0 := r.state
	s1 := s0*pcgMult + r.inc
	r.state = s1*pcgMult + r.inc
	return uint64(xshrr(s0))<<32 | uint64(xshrr(s1))
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	return xshrr(old)
}

// xshrr is PCG's XSH-RR output permutation of one state.
func xshrr(old uint64) uint32 {
	return bits.RotateLeft32(uint32(((old>>18)^old)>>27), -int(old>>59))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method on 64 bits.
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *RNG) Perm(out []int32) {
	for i := range out {
		out[i] = int32(i)
	}
	r.Shuffle(out)
}

// Shuffle permutes s uniformly at random (Fisher-Yates).
func (r *RNG) Shuffle(s []int32) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// NormFloat64 returns a standard normal variate (Box-Muller; no caching so
// the draw count stays deterministic and obvious).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Exp returns an exponential variate with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
