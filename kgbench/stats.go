package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailCandidates are the percentiles a tail figure may be reported at,
// highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5}

// minBeyondTail is how many samples must lie beyond a tail percentile for
// it to be reported: fewer, and the figure is one or two outliers.
const minBeyondTail = 10

// tailPercentile is the highest candidate percentile with at least
// minBeyondTail of n samples beyond it, or 0 when even the median has
// fewer (n < 2·minBeyondTail).
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(1-p) >= minBeyondTail-1e-9 {
			return p
		}
	}
	return 0
}

// histQuantile estimates the q-quantile of a cumulative Prometheus
// histogram delta: bounds are the finite upper bucket bounds ascending and
// counts the cumulative counts per bound, with total the +Inf count. It
// interpolates linearly inside the bucket holding the rank, as the
// exposition's own quantile estimate does. No samples yields NaN.
func histQuantile(bounds, counts []float64, total, q float64) float64 {
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	prevBound, prevCount := 0.0, 0.0
	for i, b := range bounds {
		if counts[i] >= rank {
			in := counts[i] - prevCount
			if in <= 0 {
				return b
			}
			return prevBound + (b-prevBound)*(rank-prevCount)/in
		}
		prevBound, prevCount = b, counts[i]
	}
	// The rank lies in the +Inf bucket: the largest finite bound is the
	// best lower estimate available.
	if len(bounds) == 0 {
		return math.NaN()
	}
	return bounds[len(bounds)-1]
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
