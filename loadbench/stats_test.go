package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRankAndSamplesBeyond(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	for _, tc := range []struct {
		name       string
		xs         []float64
		q          float64
		want       float64
		wantBeyond int
	}{
		{"p50 of 100", hundred, 0.5, 50, 50},
		{"p90 of 100 leaves ten beyond", hundred, 0.9, 90, 10},
		{"p99 of 100", hundred, 0.99, 99, 1},
		{"max", hundred, 1, 100, 0},
		{"p90 of 10 leaves one beyond", hundred[90:], 0.9, 9, 1},
		{"p90 of 95 rounds the rank up", hundred[5:], 0.9, 86, 9},
		{"single sample", []float64{7}, 0.5, 7, 0},
		{"tiny q clamps to the first rank", []float64{3, 1, 2}, 0.0001, 1, 2},
	} {
		got, beyond := percentile(tc.xs, tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("%s: percentile = %v with %d beyond, want %v with %d", tc.name, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty: percentile = %v, %d; want 0, 0", v, beyond)
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestMedianMeanRatio(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %v, want 0.25", got)
	}
}

func TestRoundThroughputsIgnoreAStalledSlice(t *testing.T) {
	var ops []opResult
	// Ten ops, one a second, except for a 6 s stall after the fourth.
	for _, s := range []float64{1, 2, 3, 4, 10, 11, 12, 13, 14, 15} {
		ops = append(ops, opResult{done: time.Duration(s * float64(time.Second))})
	}
	got := roundThroughputs(ops, 5)
	want := []float64{1, 1, 2.0 / 7, 1, 1}
	if len(got) != len(want) {
		t.Fatalf("roundThroughputs = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("roundThroughputs = %v, want %v", got, want)
		}
	}
	if m := median(got); m != 1 {
		t.Errorf("median round throughput = %v, want 1", m)
	}
	if got := roundThroughputs(ops[:3], 5); len(got) != 3 {
		t.Errorf("three ops over five rounds gave %d slices, want 3", len(got))
	}
}
