package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and how
// many samples lie strictly beyond its rank. With 100 samples p90 is the
// 90th smallest and 10 lie beyond it; a percentile is worth reporting only
// while that count stays at ten or more. Without samples it is 0.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
