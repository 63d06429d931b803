package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{100, 0.9},
		{50, 0.8},
		{49, 0.75},
		{40, 0.75},
		{39, 0.5},
		{20, 0.5},
		{19, 0},
		{0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && float64(tc.n)*(1-p) < minBeyondTail-1e-9 {
			t.Errorf("n=%d: p%v leaves %.2f samples beyond", tc.n, p, float64(tc.n)*(1-p))
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	// 10 samples ≤ 1, 30 more ≤ 2, 10 more ≤ 4; none beyond.
	bounds := []float64{1, 2, 4}
	counts := []float64{10, 40, 50}
	if got := histQuantile(bounds, counts, 50, 0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("median = %v, want 1.5", got)
	}
	if got := histQuantile(bounds, counts, 50, 0.1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("p10 = %v, want 0.5", got)
	}
	if got := histQuantile(bounds, counts, 60, 0.99); got != 4 {
		t.Errorf("rank in +Inf bucket = %v, want the largest finite bound 4", got)
	}
	if !math.IsNaN(histQuantile(bounds, []float64{0, 0, 0}, 0, 0.5)) {
		t.Error("empty histogram should be NaN")
	}
}
