package loadgen

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// Latency summarizes a latency sample set in milliseconds.
type Latency struct {
	Count  uint64
	MeanMs float64
	P50Ms  float64
	P90Ms  float64
	P99Ms  float64
	MaxMs  float64
}

// Percentile returns the q-quantile (0 <= q <= 1) of sorted (ascending)
// samples using the nearest-rank definition: the smallest sample such
// that at least q·n samples are <= it, i.e. index ceil(q·n)-1. Zero when
// empty; NaN and q below 0 clamp to the min sample, q above 1 to the max.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(q) || q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// SummarizeLatency sorts samples in place and extracts the summary.
func SummarizeLatency(samples []time.Duration) Latency {
	if len(samples) == 0 {
		return Latency{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Latency{
		Count:  uint64(len(samples)),
		MeanMs: ms(sum) / float64(len(samples)),
		P50Ms:  ms(Percentile(samples, 0.50)),
		P90Ms:  ms(Percentile(samples, 0.90)),
		P99Ms:  ms(Percentile(samples, 0.99)),
		MaxMs:  ms(samples[len(samples)-1]),
	}
}

// LoadResult is one traffic class's (or the total's) load-run outcome.
type LoadResult struct {
	// Name identifies the traffic class ("classify", "sweep", "total").
	Name string
	// Requests completed (any response); Errors are transport failures
	// plus 5xx responses. Rejections (429/503) are visible in ByStatus —
	// under overload they are the admission controller doing its job, not
	// errors.
	Requests uint64
	Errors   uint64
	ByStatus map[string]uint64
	// ByFailure buckets terminal failures by the client taxonomy
	// (conn_reset, timeout, connect, http_429, http_503, http_5xx,
	// other). Unlike ByStatus — which records final responses — this
	// counts only requests that exhausted their retries.
	ByFailure map[string]uint64
	// Retries counts extra attempts beyond each request's first; Hedges
	// counts speculative second requests launched by the hedging timer.
	// Both measure work the resilience layer did that a plain client
	// would have surfaced as errors (or tail latency).
	Retries uint64
	Hedges  uint64
	// Throughput is completed requests per second of run wall time.
	Throughput float64
	Latency    Latency
}

// LoadReport is one load run: what was driven and how each traffic
// class fared.
type LoadReport struct {
	// Target is the first (in a fleet run, one of several) instance
	// driven; per-target rows in Results name each.
	Target      string
	DurationSec float64
	Concurrency int
	Results     []LoadResult
}

// Table renders the load report in the house table style.
func (r LoadReport) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Load test: %s (%.1fs, %d workers)", r.Target, r.DurationSec, r.Concurrency),
		"traffic", "reqs", "rps", "errs", "retries", "p50 ms", "p90 ms", "p99 ms", "max ms")
	for _, res := range r.Results {
		t.AddRow(res.Name,
			fmt.Sprint(res.Requests),
			fmt.Sprintf("%.1f", res.Throughput),
			fmt.Sprint(res.Errors),
			fmt.Sprint(res.Retries),
			fmt.Sprintf("%.2f", res.Latency.P50Ms),
			fmt.Sprintf("%.2f", res.Latency.P90Ms),
			fmt.Sprintf("%.2f", res.Latency.P99Ms),
			fmt.Sprintf("%.2f", res.Latency.MaxMs))
	}
	return t
}
