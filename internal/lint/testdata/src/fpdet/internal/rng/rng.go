// Package rng is the fpdet fixture's stand-in for comic/internal/rng: only
// the shape of Streams matters, whose worker functions run on goroutines.
package rng

import "sync"

// RNG stands in for the generator handed to each item.
type RNG struct{}

// Streams runs items first … first+count−1 on workers goroutines.
func Streams(workers, first, count int, seed uint64, newWorker func(w int) func(i int, r *RNG)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			item := newWorker(w)
			var r RNG
			for i := first + w; i < first+count; i += workers {
				item(i, &r)
			}
		}()
	}
	wg.Wait()
}
