package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// classifyOnce drives one successful spec classify and returns the job
// ID from the response header.
func classifyOnce(t *testing.T, srv string) string {
	t.Helper()
	resp := postJSON(t, srv+"/v1/classify",
		fmt.Sprintf(`{"workload":%q,"accesses":5000,"size_kb":8,"assoc":2,"emit":"summary"}`, anyWorkload(t)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", resp.StatusCode, readAll(t, resp.Body))
	}
	readAll(t, resp.Body)
	id := resp.Header.Get("X-Mct-Job")
	if id == "" {
		t.Fatal("X-Mct-Job header missing")
	}
	return id
}

func TestPrometheusExposition(t *testing.T) {
	_, srv := newTestService(t, Config{})
	classifyOnce(t, srv.URL)

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}

	// Strict parse: zero unparseable lines is the obs-smoke contract.
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if s.Labels == nil {
			byName[s.Name] = s.Value
		}
	}
	if byName["mct_jobs_accepted_total"] < 1 {
		t.Errorf("mct_jobs_accepted_total = %v, want >= 1", byName["mct_jobs_accepted_total"])
	}
	if byName["mct_queue_capacity"] <= 0 {
		t.Errorf("mct_queue_capacity = %v", byName["mct_queue_capacity"])
	}

	hists := obs.HistogramsFromSamples(samples)
	var classify *obs.ParsedHistogram
	for i := range hists {
		if hists[i].Name == "mct_classify_duration_seconds" {
			classify = &hists[i]
		}
	}
	if classify == nil {
		t.Fatalf("no mct_classify_duration_seconds histogram in %v", hists)
	}
	if classify.Count != 1 {
		t.Errorf("classify histogram count = %d, want 1", classify.Count)
	}
	if got := classify.Buckets[len(classify.Buckets)-1]; got.LE != "+Inf" || got.CumulativeCount != classify.Count {
		t.Errorf("+Inf bucket = %+v, want cumulative count %d", got, classify.Count)
	}
}

// TestPrometheusHistogramCounts checks the histogram counts one classify
// leaves in the exposition, and that the plain counters sit alongside them.
func TestPrometheusHistogramCounts(t *testing.T) {
	_, srv := newTestService(t, Config{})
	classifyOnce(t, srv.URL)

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if s.Labels == nil {
			byName[s.Name] = s.Value
		}
	}
	if got := byName["mct_classify_duration_seconds_count"]; got != 1 {
		t.Errorf("mct_classify_duration_seconds_count = %v, want 1", got)
	}
	// The one classify formed one batch.
	if got := byName["mct_classify_batch_size_count"]; got != 1 {
		t.Errorf("mct_classify_batch_size_count = %v, want 1", got)
	}
	if got := byName["mct_classify_duration_seconds_sum"]; got < 0 {
		t.Errorf("mct_classify_duration_seconds_sum = %v", got)
	}
	for _, name := range []string{"mct_jobs_accepted_total", "mct_queue_inflight", "mct_cache_hits_total", "mct_records_total"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("counter %q missing from the exposition", name)
		}
	}
}

// TestMetricNamingConvention is the vet-style gate: every metric the
// service registers must satisfy the repo's naming rules. New metrics
// that violate the convention fail here (and would already have panicked
// at registration).
func TestMetricNamingConvention(t *testing.T) {
	s, _ := newTestService(t, Config{})
	names := s.Metrics().Names()
	if len(names) < 10 {
		t.Fatalf("only %d registered metrics — registry wiring lost?", len(names))
	}
	for name, kind := range names {
		if err := obs.CheckMetricName(kind, name); err != nil {
			t.Errorf("metric %q: %v", name, err)
		}
	}
	for _, want := range []string{
		"mct_classify_duration_seconds", "mct_sweep_duration_seconds",
		"mct_admission_wait_seconds", "mct_classify_batch_size",
	} {
		if names[want] != obs.KindHistogram {
			t.Errorf("histogram %q missing from registry", want)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, srv := newTestService(t, Config{})
	id := classifyOnce(t, srv.URL)

	resp, err := http.Get(srv.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	names := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line is not a span record: %v\n%s", err, sc.Text())
		}
		if rec.Trace != id {
			t.Errorf("span trace = %q, want %q", rec.Trace, id)
		}
		names[rec.Name]++
	}
	for _, want := range []string{"http.classify", "service.admit", "cache.lookup"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span; got %v", want, names)
		}
	}

	// Unknown jobs 404, mirroring /v1/jobs.
	resp2, err := http.Get(srv.URL + "/v1/trace/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp2.StatusCode)
	}
}
