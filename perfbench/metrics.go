package main

// metricDef is one reported metric. BENCHMARK.json lists endToEnd and
// perLayer with the same names, units and directions (a test checks).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metrics, and the workloads, a change in
	// this layer should move; empty for end-to-end metrics.
	Moves string `json:"moves,omitempty"`
}

// endToEnd are the metrics every untraced run reports on every
// workload, each read from that workload's own primary operation:
//
//	              spec-mix            trace-upload          paperbench-quick
//	setup_s       mctd boot to        mctd boot to          paperbench launch to exit,
//	              /healthz 200        /healthz 200          all results cached
//	block_p50_ms  one client block:   one client block:     one whole paperbench run
//	              cold classify +     classify upload +     (paperbench_s)
//	              cold MRC + replay   MRC upload, same image
//	ops_per_s     spec requests/s     uploads/s             runs/s
//	              (spec_rps)
//	peak_rss_mb   mctd max RSS        mctd max RSS          largest paperbench max RSS
//
// A block's latency is the sum of its requests' latencies, so every
// request kind of the workload reaches the gated block_p50_ms.
//
// The per-workload metrics under their own names (namedMetrics) are
// printed beside them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "block_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// namedMetrics are each workload's end-to-end metrics under their own
// names, as the report table prints them. Tail percentiles appear only
// when at least minBeyond samples lie beyond them; otherwise the report
// lists them as dropped, with the sample counts.
var namedMetrics = map[string][]metricDef{
	"spec-mix": {
		{Name: "setup_s", Unit: "s", Better: "lower"},
		{Name: "classify_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "classify_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "mrc_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "replay_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "spec_rps", Unit: "requests/s", Better: "higher"},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "failed_frac", Unit: "ratio", Better: "lower"},
	},
	"trace-upload": {
		{Name: "setup_s", Unit: "s", Better: "lower"},
		{Name: "upload_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "upload_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "upload_mrc_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "upload_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "failed_frac", Unit: "ratio", Better: "lower"},
	},
	"paperbench-quick": {
		{Name: "setup_s", Unit: "s", Better: "lower"},
		{Name: "paperbench_s", Unit: "s", Better: "lower"},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "failed_frac", Unit: "ratio", Better: "lower"},
	},
}

// perLayer are the metrics every traced run reports, on every workload.
// The layer suite measures them on the same seed-derived inputs whatever
// the workload, except where Moves says otherwise.
var perLayer = []metricDef{
	{Name: "workload.gen_ns_per_ref", Unit: "ns", Better: "lower",
		Moves: "classify_p50_ms, mrc_p50_ms, block_p50_ms, spec_rps on spec-mix; paperbench_s; no change on trace-upload"},
	{Name: "workload.records_per_ref", Unit: "records/ref", Better: "lower",
		Moves: "as workload.gen_ns_per_ref (instruction records built per memory reference kept)"},
	{Name: "trace.decode_ns_per_record", Unit: "ns", Better: "lower",
		Moves: "upload_p50_ms, upload_mrc_p50_ms, block_p50_ms, upload_mb_s on trace-upload only"},
	{Name: "core.access_ns_per_ref", Unit: "ns", Better: "lower",
		Moves: "classify_p50_ms, block_p50_ms on spec-mix; upload_p50_ms, block_p50_ms on trace-upload"},
	{Name: "classify.oracle_ns_per_ref", Unit: "ns", Better: "lower",
		Moves: "classify_p50_ms, block_p50_ms on spec-mix; upload_p50_ms, block_p50_ms on trace-upload"},
	{Name: "classify.ladder_ns_per_ref", Unit: "ns", Better: "lower",
		Moves: "mrc_p50_ms, block_p50_ms on spec-mix; upload_mrc_p50_ms, block_p50_ms on trace-upload"},
	{Name: "classify.scalar_ns_per_ref", Unit: "ns", Better: "lower",
		Moves: "paperbench_s (Figure 2's per-access path)"},
	{Name: "mrc.observe_ns_per_ref", Unit: "ns", Better: "lower",
		Moves: "mrc_p50_ms, block_p50_ms on spec-mix; upload_mrc_p50_ms, block_p50_ms on trace-upload"},
	{Name: "mrc.sampled_frac", Unit: "ratio", Better: "lower",
		Moves: "mrc.observe_ns_per_ref (share of references the profiler keeps)"},
	{Name: "service.render_ms", Unit: "ms", Better: "lower",
		Moves: "classify_p50_ms, block_p50_ms on spec-mix; upload_p50_ms, block_p50_ms on trace-upload"},
	{Name: "service.lines_per_request", Unit: "count", Better: "lower",
		Moves: "service.render_ms (NDJSON lines of one cold classify response)"},
	{Name: "service.transport_ms", Unit: "ms", Better: "lower",
		Moves: "every latency on spec-mix and trace-upload"},
	{Name: "runner.memo_store_ns_per_byte", Unit: "ns/B", Better: "lower",
		Moves: "classify_p50_ms, block_p50_ms on spec-mix; no change on trace-upload"},
	{Name: "runner.memo_load_ns_per_byte", Unit: "ns/B", Better: "lower",
		Moves: "replay_p50_ms, block_p50_ms on spec-mix; no change on trace-upload"},
	{Name: "service.admit_wait_ms", Unit: "ms", Better: "lower",
		Moves: "classify_p50_ms, block_p50_ms, spec_rps on spec-mix"},
	{Name: "service.batch_size_mean", Unit: "count", Better: "higher",
		Moves: "classify_p50_ms, block_p50_ms, spec_rps on spec-mix"},
	{Name: "runner.memo_hit_ratio", Unit: "ratio", Better: "higher",
		Moves: "replay_p50_ms, block_p50_ms, spec_rps on spec-mix; equals the designed replay share (1/3)"},
	{Name: "sim.ns_per_instr", Unit: "ns", Better: "lower",
		Moves: "paperbench_s only"},
	{Name: "sim.amb_ns_per_instr", Unit: "ns", Better: "lower",
		Moves: "paperbench_s only (Figure 6)"},
	{Name: "paperbench.fig2_s", Unit: "s", Better: "lower",
		Moves: "paperbench_s"},
	{Name: "paperbench.fig3_s", Unit: "s", Better: "lower",
		Moves: "paperbench_s"},
	{Name: "paperbench.fig6_s", Unit: "s", Better: "lower",
		Moves: "paperbench_s"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower",
		Moves: "none: traced minus untraced block_p50_ms in one run, the cost of the benchmark's own spans"},
}
