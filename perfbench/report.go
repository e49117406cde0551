package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// result is everything one run measured and checked.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Stamp     envStamp           `json:"env"`
	WallS     float64            `json:"wall_s"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	E2E       map[string]float64 `json:"end_to_end,omitempty"`
	Named     []namedValue       `json:"named,omitempty"`
	Dropped   []dropped          `json:"dropped,omitempty"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	SelfTimes []layerTime        `json:"self_times,omitempty"`
	Checks    *checks            `json:"-"`
	CheckList []checkResult      `json:"checks"`
}

// namedValue is one of a workload's end-to-end metrics under its own
// name, with the sample count behind it.
type namedValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// dropped is a metric the run could not report, and why.
type dropped struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
}

// fillEndToEnd computes the end-to-end metrics of an untraced run.
func (r *result) fillEndToEnd(w *workloadDef, setup []float64, ph *phase, rssMB float64) {
	el := ph.elapsed.Seconds()
	unit := map[string]string{}
	for _, d := range namedMetrics[w.name] {
		unit[d.Name] = d.Unit
	}
	add := func(name string, v float64, n int) {
		r.Named = append(r.Named, namedValue{Name: name, Unit: unit[name], Value: v, N: n})
	}
	p50 := func(name, kind string) { add(name, median(ph.lat[kind]), len(ph.lat[kind])) }
	p90 := func(name, kind string) {
		xs := ph.lat[kind]
		if v, beyond, ok := tail(xs, 90); ok {
			add(name, v, len(xs))
		} else {
			r.Dropped = append(r.Dropped, dropped{Name: name, Reason: fmt.Sprintf(
				"%d of %d samples lie beyond p90; a tail percentile needs %d", beyond, len(xs), minBeyond)})
		}
	}
	add("setup_s", median(setup), len(setup))
	switch w.name {
	case "spec-mix":
		p50("classify_p50_ms", "classify")
		p90("classify_p90_ms", "classify")
		p50("mrc_p50_ms", "mrc")
		p50("replay_p50_ms", "replay")
		add("spec_rps", float64(ph.completed())/el, ph.completed())
	case "trace-upload":
		p50("upload_p50_ms", "upload")
		p90("upload_p90_ms", "upload")
		p50("upload_mrc_p50_ms", "upload-mrc")
		add("upload_mb_s", float64(ph.bytes)/1e6/el, ph.completed())
	case "paperbench-quick":
		add("paperbench_s", median(ph.lat["paperbench"])/1000, len(ph.lat["paperbench"]))
	}
	add("peak_rss_mb", rssMB, 1)
	add("failed_frac", float64(ph.failed)/float64(max(ph.attempted, 1)), ph.attempted)

	r.E2E = map[string]float64{
		"setup_s":      median(setup),
		"block_p50_ms": median(ph.lat[w.block]),
		"ops_per_s":    float64(ph.completed()) / el,
		"peak_rss_mb":  rssMB,
	}
}

// metricsLine is the last line of standard output.
type metricsLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line builds the result line: every endToEnd metric for an untraced
// run, every perLayer metric for a traced one. A metric that is missing
// or not a finite number fails the run's checks and reads 0.
func (r *result) line(trace bool) metricsLine {
	defs, vals := endToEnd, r.E2E
	if trace {
		defs, vals = perLayer, r.Layers
	}
	l := metricsLine{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !r.Checks.expect("every metric is measured and finite", ok && !math.IsNaN(v) && !math.IsInf(v, 0),
			"%s = %v (present %v)", d.Name, v, ok) {
			v = 0
		}
		l.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	l.Correct = r.Checks.ok()
	r.Correct = l.Correct
	r.CheckList = r.Checks.list()
	return l
}

// printReport writes the human-readable report: every metric by name
// and unit, then the checks.
func printReport(w io.Writer, r *result) {
	if !r.Trace {
		fmt.Fprintf(w, "end-to-end, %s (untraced):\n", r.Workload)
		fmt.Fprintf(w, "  %-20s %-11s %14s %6s\n", "metric", "unit", "value", "n")
		for _, v := range r.Named {
			fmt.Fprintf(w, "  %-20s %-11s %14.4f %6d\n", v.Name, v.Unit, v.Value, v.N)
		}
		for _, d := range r.Dropped {
			fmt.Fprintf(w, "  %-20s dropped: %s\n", d.Name, d.Reason)
		}
		fmt.Fprintln(w, "result-line metrics (BENCHMARK.json end_to_end):")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-20s %-11s %14.4f\n", d.Name, d.Unit, r.E2E[d.Name])
		}
	} else {
		fmt.Fprintf(w, "per-layer, %s (traced):\n", r.Workload)
		fmt.Fprintf(w, "  %-30s %-11s %14s  %s\n", "metric", "unit", "value", "should move")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %-11s %14.4f  %s\n", d.Name, d.Unit, r.Layers[d.Name], d.Moves)
		}
		fmt.Fprintln(w, "self time by span name (span duration minus its children's):")
		fmt.Fprintf(w, "  %-30s %7s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
		for _, s := range r.SelfTimes {
			fmt.Fprintf(w, "  %-30s %7d %12.3f %12.3f\n", s.Name, s.Calls, s.TotalMS, s.SelfMS)
		}
		fmt.Fprintf(w, "tracing overhead: traced minus untraced block_p50_ms = %.4f ms\n", r.Layers["trace.overhead_ms"])
	}
	passed := 0
	for _, c := range r.CheckList {
		if c.Failed == 0 {
			passed++
			continue
		}
		fmt.Fprintf(w, "  CHECK FAILED %s (%d of %d): %s\n", c.Name, c.Failed, c.Failed+c.Passed, c.First)
	}
	fmt.Fprintf(w, "checks: %d of %d passed; attempted %d, failed %d\n", passed, len(r.CheckList), r.Attempted, r.Failed)
}

// writeReport writes the run's report as JSON, and for a traced run its
// spans as NDJSON, under opt.out.
func writeReport(opt options, r *result, tr *tracer) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	mode := 0
	if r.Trace {
		mode = 1
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, mode)
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.out, "report-"+stem+".json"), append(enc, '\n'), 0o644); err != nil {
		return err
	}
	return tr.writeNDJSON(filepath.Join(opt.out, "spans-"+stem+".ndjson"))
}

// envStamp identifies the machine and the code a run measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func (s envStamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s", s.NProc, s.GOMAXPROCS, s.GoVersion, s.Commit)
}

// stampEnv records the machine, the toolchain, and the git commit when
// the root is a git checkout ("unknown" otherwise).
func stampEnv(root string) envStamp {
	s := envStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			s.Commit = strings.TrimSpace(string(out))
		}
	}
	return s
}
