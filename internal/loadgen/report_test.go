package loadgen

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/stats"
)

// naivePercentile is the reference nearest-rank definition, written the
// obvious way: the smallest sample with at least q·n samples at or below
// it. The production Percentile must agree with this everywhere.
func naivePercentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	need := q * float64(n)
	for i := 0; i < n; i++ {
		if float64(i+1) >= need {
			return sorted[i]
		}
	}
	return sorted[n-1]
}

func TestPercentileTable(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"single q0", ms(7), 0, 7 * time.Millisecond},
		{"single q0.5", ms(7), 0.5, 7 * time.Millisecond},
		{"single q1", ms(7), 1, 7 * time.Millisecond},
		{"two q0", ms(1, 2), 0, 1 * time.Millisecond},
		{"two q0.5", ms(1, 2), 0.5, 1 * time.Millisecond},
		{"two q0.51", ms(1, 2), 0.51, 2 * time.Millisecond},
		{"two q1", ms(1, 2), 1, 2 * time.Millisecond},
		// The case the round-half-up bug got wrong: ceil(0.6*4)=3 → index
		// 2; the old code computed int(2.4+0.5)-1 = 1.
		{"p60 of 4", ms(1, 2, 3, 4), 0.6, 3 * time.Millisecond},
		{"p25 of 4", ms(1, 2, 3, 4), 0.25, 1 * time.Millisecond},
		{"p26 of 4", ms(1, 2, 3, 4), 0.26, 2 * time.Millisecond},
		{"p50 of 10", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.5, 5 * time.Millisecond},
		{"p90 of 10", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.9, 9 * time.Millisecond},
		{"p99 of 10", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.99, 10 * time.Millisecond},
		{"q below 0 clamps", ms(1, 2, 3), -0.5, 1 * time.Millisecond},
		{"q above 1 clamps", ms(1, 2, 3), 1.5, 3 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Percentile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: Percentile(%v, %g) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
}

func TestPercentileMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for n := 1; n <= 40; n++ {
		sorted := make([]time.Duration, n)
		var acc time.Duration
		for i := range sorted {
			acc += time.Duration(1+rng.Intn(50)) * time.Millisecond
			sorted[i] = acc
		}
		for _, q := range qs {
			got := Percentile(sorted, q)
			want := naivePercentile(sorted, q)
			if got != want {
				t.Fatalf("n=%d q=%g: Percentile = %v, naive reference = %v", n, q, got, want)
			}
		}
	}
}

func TestPercentileMonotoneInQ(t *testing.T) {
	sorted := make([]time.Duration, 17)
	for i := range sorted {
		sorted[i] = time.Duration(i*i) * time.Microsecond
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0+1e-9; q += 0.001 {
		got := Percentile(sorted, q)
		if got < prev {
			t.Fatalf("Percentile not monotone: q=%g gave %v after %v", q, got, prev)
		}
		prev = got
	}
}

func TestSummarizeLatency(t *testing.T) {
	s := SummarizeLatency([]time.Duration{
		4 * time.Millisecond, 2 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond,
	})
	if s.Count != 4 || s.MeanMs != 2.5 || s.MaxMs != 4 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50Ms != 2 {
		t.Errorf("p50 = %v, want 2", s.P50Ms)
	}
}

// TestSummarizeLatencyEmptyAndTail pins the empty summary and the
// nearest-rank indices the tail percentiles land on.
func TestSummarizeLatencyEmptyAndTail(t *testing.T) {
	if got := SummarizeLatency(nil); got != (Latency{}) {
		t.Errorf("empty summary = %+v", got)
	}
	samples := []time.Duration{
		4 * time.Millisecond, 1 * time.Millisecond,
		3 * time.Millisecond, 2 * time.Millisecond,
	}
	got := SummarizeLatency(samples)
	if got.Count != 4 {
		t.Errorf("Count = %d", got.Count)
	}
	if math.Abs(got.MeanMs-2.5) > 1e-9 {
		t.Errorf("MeanMs = %g, want 2.5", got.MeanMs)
	}
	if got.P50Ms != 2 {
		t.Errorf("P50Ms = %g, want 2 (ceil(0.5*4)-1 = index 1)", got.P50Ms)
	}
	if got.P90Ms != 4 || got.P99Ms != 4 || got.MaxMs != 4 {
		t.Errorf("tail = %+v", got)
	}
}

// TestPercentileCrossPackageDifferential pins stats.Histogram.Percentile
// and loadgen.Percentile to the same nearest-rank rule over shared sample
// sets. With bucket width 1, a histogram's bucket for value v has upper
// bound v+1, so for every quantile — including the formerly-unvalidated
// NaN and out-of-range ones — the histogram answer must be exactly the
// sorted-samples answer plus one.
func TestPercentileCrossPackageDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sets := map[string][]uint64{
		"single":    {7},
		"two":       {3, 9},
		"four":      {1, 2, 3, 4},
		"dup-heavy": {5, 5, 5, 5, 5, 9, 9, 1},
	}
	uniform := make([]uint64, 997)
	for i := range uniform {
		uniform[i] = uint64(rng.Intn(200))
	}
	sets["uniform"] = uniform

	quantiles := []float64{-0.5, 0, 1e-9, 0.01, 0.25, 0.5, 0.6, 0.75, 0.9, 0.99, 0.999, 1, 1.5, math.NaN()}

	for name, vals := range sets {
		maxV := slices.Max(vals)
		h := stats.NewHistogram(int(maxV)+1, 1)
		sorted := make([]time.Duration, len(vals))
		for i, v := range vals {
			h.Add(v)
			sorted[i] = time.Duration(v)
		}
		slices.Sort(sorted)

		for _, q := range quantiles {
			want := uint64(Percentile(sorted, q)) + 1
			got := h.Percentile(q)
			if got != want {
				t.Errorf("%s q=%v: histogram %d, sorted-rank %d", name, q, got, want)
			}
		}
	}
}
