package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func TestMctloadEndToEnd(t *testing.T) {
	svc := service.New(service.Config{CacheDir: t.TempDir() + "/cache", CheckpointDir: t.TempDir() + "/ckpt"})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})

	var stdout, stderr bytes.Buffer
	code := mctloadMain([]string{
		"-url", srv.URL,
		"-duration", "250ms",
		"-concurrency", "2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Load test:") || !strings.Contains(stdout.String(), "total") {
		t.Errorf("missing result table or its total row:\n%s", stdout.String())
	}

	// The service's own registry saw the traffic the table reports.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v", err)
	}
	var accepted float64
	var classify *obs.ParsedHistogram
	for _, s := range samples {
		if s.Name == "mct_jobs_accepted_total" {
			accepted = s.Value
		}
	}
	for _, h := range obs.HistogramsFromSamples(samples) {
		if h.Name == "mct_classify_duration_seconds" {
			h := h
			classify = &h
		}
	}
	if accepted <= 0 {
		t.Errorf("mct_jobs_accepted_total = %v, want > 0", accepted)
	}
	if classify == nil || classify.Count == 0 {
		t.Errorf("classify latency histogram empty: %+v", classify)
	}
}

func TestMctloadUnreachableTarget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := mctloadMain([]string{
		"-url", "http://127.0.0.1:1", // nothing listens on port 1
		"-duration", "100ms",
		"-concurrency", "1",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (all requests failed)\nstderr:\n%s", code, stderr.String())
	}
}

func TestMctloadBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := mctloadMain([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
