package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running mctd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	log     *stderrLog
	done    chan struct{} // closed once the process has been waited for
	waitErr error         // Wait's result, readable after done closes
}

// stderrLog keeps a child's diagnostics and hands over the listen
// address from mctd's "listening on" line.
type stderrLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		const marker = "mctd: listening on "
		s := l.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexAny(rest, " \n"); j > 0 {
				l.addr <- rest[:j]
				l.sent = true
			}
		}
	}
	return len(p), nil
}

// tail returns the last few hundred bytes of the log, for error reports.
func (l *stderrLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.buf.String()
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return strings.TrimSpace(s)
}

// startDaemon launches mctd with its default flags except the listen
// address and the data directories, which go under dir, and returns once
// /healthz answers 200, with the time that took.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, time.Duration, error) {
	args := []string{
		"-listen", "127.0.0.1:0",
		"-cachedir", filepath.Join(dir, "cache"),
		"-checkpointdir", filepath.Join(dir, "checkpoint"),
		"-journaldir", filepath.Join(dir, "jobs"),
	}
	d := &daemon{
		cmd:  exec.Command(filepath.Join(bin, "mctd"), args...),
		log:  &stderrLog{addr: make(chan string, 1)},
		done: make(chan struct{}),
	}
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting mctd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()

	fail := func(err error) (*daemon, time.Duration, error) {
		_, _ = d.stop()
		return nil, 0, err
	}
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case addr := <-d.log.addr:
		d.base = "http://" + addr
	case <-d.done:
		return fail(fmt.Errorf("mctd exited during boot (%v): %s", d.waitErr, d.log.tail()))
	case <-deadline.C:
		return fail(fmt.Errorf("mctd did not report its listen address within 30s: %s", d.log.tail()))
	case <-ctx.Done():
		return fail(ctx.Err())
	}

	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-deadline.C:
			return fail(fmt.Errorf("mctd /healthz not ready within 30s: %s", d.log.tail()))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the drain (killing the process if it
// outlasts mctd's own drain timeout), and returns its peak RSS in MB.
// A non-zero exit is an error. Calling stop again is harmless.
func (d *daemon) stop() (float64, error) {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(40 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			return 0, fmt.Errorf("mctd ignored SIGTERM for 40s and was killed: %s", d.log.tail())
		}
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("mctd exited badly (%v): %s", d.waitErr, d.log.tail())
	}
	return peakRSSMB(d.cmd), nil
}

// peakRSSMB reads a finished child's maximum resident set from rusage
// (Linux reports it in KiB).
func peakRSSMB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// scrapeProm fetches mctd's Prometheus exposition and returns its
// unlabelled samples by name. The parser is the benchmark's own, so a
// change to the program's metrics code cannot move it.
func scrapeProm(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d, %v", resp.StatusCode, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		var name string
		var v float64
		if n, _ := fmt.Sscanf(line, "%s %g", &name, &v); n == 2 && !strings.Contains(name, "{") {
			out[name] = v
		}
	}
	return out, nil
}
