//go:build unix

package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before it is
// read as a tail estimate rather than as the run's few slowest values.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1) and
// whether at least minBeyond samples lie beyond it. The 90th percentile
// therefore needs 100 samples and the median 20. An empty xs yields 0,
// false.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9)) // 1-based; the slack absorbs q's binary rounding
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= minBeyond
}

// median is the nearest-rank median; set-up and overhead samples are few,
// so no tail rule applies to it.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// ratio returns a/b, or 0 when b is 0 (nothing happened to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
