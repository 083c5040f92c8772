// Package directive exercises validation of //comic: directives. The
// analyzer reports at the directive comment's own position, so expectations
// use the want-1 offset form on the following line.
package directive

import (
	"sort"
	"time"
)

// timed carries a valid, attached timing directive: no diagnostic.
func timed() time.Duration {
	//comic:timing measured for the log line only
	t := time.Now()
	//comic:timing measured for the log line only
	return time.Since(t)
}

// listed carries a valid, attached unordered directive: no diagnostic.
func listed(m map[string]int) []string {
	var out []string
	//comic:unordered caller rehashes the result
	for k := range m {
		out = append(out, k)
	}
	return out
}

// allowed carries a valid, attached allow directive: no diagnostic.
func allowed(m map[string]int) []string {
	//comic:allow shadow deliberate reuse in a table-driven helper
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func bad(m map[string]int) int {
	//comic:frobnicate whatever
	// want-1 `unknown comic directive "//comic:frobnicate"`
	n := len(m)

	// comic:timing looks like a directive but is not parsed as one
	// want-1 `malformed comic directive: write "//comic:" with no space after //`
	n++

	//comic:timing
	// want-1 `//comic:timing needs a reason: //comic:timing <reason>`
	n++

	//comic:timing there is no clock call anywhere near this line
	// want-1 `//comic:timing is not attached to a wall-clock call \(time.Now, time.Since, time.Until\)`
	n++

	//comic:unordered
	// want-1 `//comic:unordered needs a reason: //comic:unordered <reason>`
	n++

	//comic:unordered this loop is over a slice, not a map
	// want-1 `//comic:unordered is not attached to a range statement over a map`
	for range []int{1, 2} {
		n++
	}

	//comic:allow detrand trying to bypass the determinism contract
	// want-1 `//comic:allow must name one of errlost, fpdet, lockorder, shadow \(got "detrand"\)`
	n++

	//comic:allow shadow
	// want-1 `//comic:allow shadow needs a reason: //comic:allow shadow <reason>`
	n++

	return n
}

// concurrency carries valid allow directives for the contract analyzers
// added with the facts protocol: no diagnostics.
func concurrency(paths []string) float64 {
	//comic:allow errlost best-effort cleanup, failure leaves only a stale temp file
	n := len(paths)

	//comic:allow lockorder snapshot lock deliberately held across the fsync
	n++

	var sum float64
	//comic:allow fpdet partials are merged in pinned order by the caller
	sum += float64(n)
	return sum
}
