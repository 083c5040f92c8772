// Package montecarlo exercises fpdet: cross-goroutine floating-point
// accumulation is flagged unless it follows the pinned-merge-order idiom.
package montecarlo

import (
	"sync"

	"fpdet/internal/rng"
)

// Bad accumulates into a captured float from worker goroutines. The mutex
// makes it race-free but not order-free: float addition does not commute.
func Bad(samples [][]float64) float64 {
	var (
		mu  sync.Mutex
		sum float64
		wg  sync.WaitGroup
	)
	for _, chunk := range samples {
		chunk := chunk
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0.0
			for _, v := range chunk {
				local += v
			}
			mu.Lock()
			sum += local // want `floating-point accumulation into sum inside a goroutine: the merge order is schedule-dependent even under a lock; use per-worker accumulators merged in pinned order \(see internal/montecarlo\) or annotate with //comic:allow fpdet <reason>`
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sum
}

// Good is the pinned-slot idiom: each worker owns accs[wi], and the merge
// happens in index order on the spawning goroutine.
func Good(samples [][]float64) float64 {
	accs := make([]float64, len(samples))
	var wg sync.WaitGroup
	for wi, chunk := range samples {
		wi, chunk := wi, chunk
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range chunk {
				accs[wi] += v
			}
		}()
	}
	wg.Wait()
	var sum float64
	for _, a := range accs {
		sum += a
	}
	return sum
}

// BadStreams accumulates into a captured float from rng.Streams workers,
// which run on goroutines just as Bad's do.
func BadStreams(xs []float64) float64 {
	var sum float64
	rng.Streams(2, 0, len(xs), 1, func(int) func(int, *rng.RNG) {
		return func(i int, _ *rng.RNG) {
			sum += xs[i] // want `floating-point accumulation into sum inside a goroutine: the merge order is schedule-dependent even under a lock; use per-worker accumulators merged in pinned order \(see internal/montecarlo\) or annotate with //comic:allow fpdet <reason>`
		}
	})
	return sum
}

// GoodStreams gives each rng.Streams worker its own accumulator, declared
// in the worker function, and merges the slots in worker order.
func GoodStreams(xs []float64) float64 {
	accs := make([]float64, 2)
	rng.Streams(2, 0, len(xs), 1, func(w int) func(int, *rng.RNG) {
		var local float64
		return func(i int, _ *rng.RNG) {
			local += xs[i]
			accs[w] = local
		}
	})
	var sum float64
	for _, a := range accs {
		sum += a
	}
	return sum
}

// Chan drains worker results from a channel: the receive order is whatever
// the scheduler produced, so the accumulation is schedule-dependent.
func Chan(results chan float64) float64 {
	var sum float64
	for v := range results {
		sum += v // want `floating-point accumulation into sum from a channel: the receive order is schedule-dependent; use per-worker accumulators merged in pinned order \(see internal/montecarlo\) or annotate with //comic:allow fpdet <reason>`
	}
	return sum
}

// Allowed is the channel pattern with a deliberate annotation.
func Allowed(results chan float64) float64 {
	var sum float64
	for v := range results {
		//comic:allow fpdet estimator tolerance dominates merge-order jitter here
		sum += v
	}
	return sum
}

// Ints accumulates integers: exact, order-free, no diagnostic.
func Ints(results chan int) int {
	total := 0
	for v := range results {
		total += v
	}
	return total
}
