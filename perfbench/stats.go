package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a tail percentile before
// the benchmark reports it; with fewer, the "tail" is a handful of
// outliers and reads differently on every run.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// among n samples: the smallest r with r/n >= p/100.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// percentile returns the nearest-rank p-th percentile of xs, which need
// not be sorted. It is always one of the samples, never an interpolation.
// An empty xs gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

// median is the nearest-rank 50th percentile (the lower middle sample
// when the count is even).
func median(xs []float64) float64 { return percentile(xs, 50) }

// tail returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it. ok is false, and the value meaningless, unless
// at least minBeyond samples lie beyond it.
func tail(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	beyond = len(xs) - rank(len(xs), p)
	if beyond < minBeyond {
		return 0, beyond, false
	}
	return percentile(xs, p), beyond, true
}
