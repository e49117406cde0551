package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {21, 2}, {50, 3}, {60, 3}, {61, 4}, {100, 5},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even count = %v, want the lower middle 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the input order must not matter
		}
		return xs
	}
	for _, tc := range []struct {
		n, wantBeyond int
		ok            bool
		want          float64
	}{
		{n: 0, wantBeyond: 0},
		{n: 9, wantBeyond: 0},
		{n: 99, wantBeyond: 9},                       // rank ceil(89.1) = 90
		{n: 100, wantBeyond: 10, ok: true, want: 90}, // rank 90
		{n: 250, wantBeyond: 25, ok: true, want: 225},
	} {
		v, beyond, ok := tail(seq(tc.n), 90)
		if beyond != tc.wantBeyond || ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("tail(n=%d, p90) = (%v, %d, %v), want (%v, %d, %v)",
				tc.n, v, beyond, ok, tc.want, tc.wantBeyond, tc.ok)
		}
	}
}
