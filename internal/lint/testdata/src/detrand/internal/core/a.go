// Package core is a detrand fixture standing in for the diffusion engine,
// which draws every possible world the simulators and the RR-set generators
// read: its import path ends in internal/core, so it is determinism-critical.
package core

import (
	"math/rand" // want `import of math/rand is forbidden in determinism-critical package detrand/internal/core: use comic/internal/rng streams`
	"time"
)

// coin draws an edge coin from ambient randomness; the import line itself
// is the diagnostic site.
func coin(p float64) bool { return rand.Float64() < p }

// seedFromClock leaks real time into a draw.
func seedFromClock() int64 {
	return time.Now().UnixNano() // want `call to time.Now in determinism-critical package detrand/internal/core: remove it or annotate the statement with //comic:timing <reason>`
}
