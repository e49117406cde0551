package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// specifiedMetrics is the end-to-end metric table the benchmark was specified
// with, per workload: every one must appear in the report with its unit,
// or be listed as dropped with a reason.
var specifiedMetrics = map[string]map[string]string{
	"spec-mix": {
		"setup_s": "s", "classify_p50_ms": "ms", "classify_p90_ms": "ms", "mrc_p50_ms": "ms",
		"replay_p50_ms": "ms", "spec_rps": "requests/s", "peak_rss_mb": "MB", "failed_frac": "ratio",
	},
	"trace-upload": {
		"setup_s": "s", "upload_p50_ms": "ms", "upload_p90_ms": "ms", "upload_mrc_p50_ms": "ms",
		"upload_mb_s": "MB/s", "peak_rss_mb": "MB", "failed_frac": "ratio",
	},
	"paperbench-quick": {
		"setup_s": "s", "paperbench_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
	},
}

var (
	buildOnce sync.Once
	binDir    string // removed by TestMain
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildPrograms builds mctd, paperbench and tracegen from the repository
// once per test binary.
func buildPrograms(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "perfbench-bin-"); buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/mctd", "./cmd/paperbench", "./cmd/tracegen")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v: %s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

// TestSmoke runs every workload untraced and traced at tiny scale and
// checks the result line and the report: every metric named, with its
// unit, or dropped with a reason.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots mctd and runs paperbench")
	}
	bin := buildPrograms(t)
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				work := t.TempDir()
				code := run([]string{"-workload", w.name, "-seed", "7", "-seconds", "1", "-trace", fmt.Sprint(trace),
					"-smoke", "-bin", bin, "-work", work, "-root", ".."}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
				}
				var keys []string
				for k := range last {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
					t.Fatalf("result keys %v, want %v", keys, want)
				}
				var res metricsLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result line, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("result line metric %s: %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				report := stdout.String()
				if trace == 0 {
					for name, unit := range specifiedMetrics[w.name] {
						named := fmt.Sprintf("\n  %-20s %-11s ", name, unit)
						dropped := fmt.Sprintf("\n  %-20s dropped: ", name)
						if !strings.Contains(report, named) && !strings.Contains(report, dropped) {
							t.Errorf("report names neither %s (%s) nor its drop reason", name, unit)
						}
					}
				} else {
					for _, want := range []string{"self time by span name", "tracing overhead:"} {
						if !strings.Contains(report, want) {
							t.Errorf("traced report lacks %q", want)
						}
					}
					spans, _ := filepath.Glob(filepath.Join(work, "perfbench-reports", "spans-*.ndjson"))
					if len(spans) != 1 {
						t.Errorf("want one span file, found %v", spans)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metric lists in step with the definitions the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d defined", kind, len(got), len(want))
			return
		}
		for i := range want {
			w := want[i]
			w.Moves = ""
			if got[i] != w {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, got[i], w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestInputsDependOnlyOnSeed checks that the generated request lists
// repeat exactly for one seed and differ between seeds.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	list := func(seed uint64) []string {
		c := &specClient{id: 1, seed: derive(seed, "spec-client", 1), accesses: 1000, sent: map[byte]int{}}
		var out []string
		for i := 0; i < 3; i++ {
			for _, k := range []byte(specPattern) {
				req, _ := c.next(k)
				if k == 'c' {
					c.colds = append(c.colds, coldSpec{body: req.body})
				}
				out = append(out, req.kind+" "+string(req.body))
			}
		}
		return out
	}
	a, b, other := list(5), list(5), list(6)
	if !slices.Equal(a, b) {
		t.Errorf("seed 5 gave two different request lists:\n%v\n%v", a, b)
	}
	if slices.Equal(a, other) {
		t.Error("seeds 5 and 6 gave the same request list")
	}
}
