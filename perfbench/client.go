package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// newHTTPClient returns a client with at most conns connections, so the
// closed loop's client count is also its connection count. Its large
// socket buffers keep the client's own syscalls few: megabyte uploads and
// NDJSON responses would otherwise move through 4 KB reads and writes.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
			ReadBufferSize:      1 << 20,
			WriteBufferSize:     1 << 20,
		},
		Timeout: 2 * time.Minute,
	}
}

// request is one entry of a workload's generated request list.
type request struct {
	kind  string // latency bucket: classify, mrc, replay, upload, upload-mrc
	path  string
	ctype string
	body  []byte
}

// send POSTs req and reads the whole response into buf. The latency runs
// from just before the request is written until its last byte is read.
// With tr non-nil the request is recorded as a span, with the phases a
// client can observe as its children: writing the request, waiting for
// the first response byte, and reading the response.
func send(ctx context.Context, hc *http.Client, base string, req *request, buf *bytes.Buffer, tr *tracer, reqID string, parent int) (int, time.Duration, error) {
	var wrote, first atomic.Int64 // unix ns; the transport's goroutines set them
	if tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
			GotFirstResponseByte: func() { first.Store(time.Now().UnixNano()) },
		})
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, 0, err
	}
	hreq.Header.Set("Content-Type", req.ctype)
	buf.Reset()
	t0 := time.Now()
	status := 0
	resp, err := hc.Do(hreq)
	if err == nil {
		status = resp.StatusCode
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	if tr != nil {
		root := tr.record("http."+req.kind, reqID, parent, t0, t1)
		w, f := t0, t1
		if ns := wrote.Load(); ns != 0 {
			w = time.Unix(0, ns)
			tr.record("client.write_request", reqID, root, t0, w)
		}
		if ns := first.Load(); ns != 0 {
			f = time.Unix(0, ns)
			if f.Before(w) { // the server answered while the upload was still going
				w = t0
			}
			tr.record("server.first_byte_wait", reqID, root, w, f)
			tr.record("client.read_response", reqID, root, f, t1)
		}
	}
	return status, t1.Sub(t0), err
}

// The NDJSON records of mctd's classify and MRC responses, as far as the
// checks read them. They are decoded with the benchmark's own types.
type classifySummary struct {
	Accesses   uint64 `json:"accesses"`
	Misses     uint64 `json:"misses"`
	Conflict   uint64 `json:"conflict"`
	Capacity   uint64 `json:"capacity"`
	Compulsory uint64 `json:"compulsory"`
}

type mrcPoint struct {
	SizeKB    int     `json:"size_kb"`
	MissRatio float64 `json:"miss_ratio"`
	MCT       struct {
		Accesses   uint64  `json:"accesses"`
		Misses     uint64  `json:"misses"`
		Conflict   uint64  `json:"conflict"`
		Capacity   uint64  `json:"capacity"`
		Compulsory uint64  `json:"compulsory"`
		MissRatio  float64 `json:"miss_ratio"`
	} `json:"mct"`
}

type ndjsonRecord struct {
	Summary json.RawMessage `json:"summary"`
	Point   *mrcPoint       `json:"point"`
	Error   string          `json:"error"`
}

// lastLine returns body's final NDJSON line.
func lastLine(body []byte) []byte {
	body = bytes.TrimRight(body, "\n")
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		return body[i+1:]
	}
	return body
}

// countLines returns how many NDJSON lines body holds.
func countLines(body []byte) int {
	body = bytes.TrimRight(body, "\n")
	if len(body) == 0 {
		return 0
	}
	return bytes.Count(body, []byte("\n")) + 1
}

// checkClassify checks an emit=misses classify response, of which body
// holds at least the last line and which has lines lines in all: one
// line per miss, then a summary. In a classify summary compulsory misses
// are the subset of capacity misses the paper groups with them, so the
// split is checked as conflict + capacity == misses <= accesses with
// compulsory <= capacity. wantAccesses 0 skips the access-count check.
func checkClassify(chk *checks, body []byte, lines int, wantAccesses uint64) (classifySummary, bool) {
	var rec ndjsonRecord
	var sum classifySummary
	if err := json.Unmarshal(lastLine(body), &rec); err != nil || rec.Error != "" || rec.Summary == nil {
		return sum, chk.expect("classify response ends in a summary", false, "last line %.200q (%v)", lastLine(body), err)
	}
	if err := json.Unmarshal(rec.Summary, &sum); err != nil {
		return sum, chk.expect("classify response ends in a summary", false, "summary %.200q: %v", rec.Summary, err)
	}
	chk.expect("classify response ends in a summary", true, "")
	ok := chk.expect("classify: conflict + capacity == misses <= accesses, compulsory <= capacity",
		sum.Conflict+sum.Capacity == sum.Misses && sum.Misses <= sum.Accesses && sum.Compulsory <= sum.Capacity,
		"summary %+v", sum)
	ok = chk.expect("classify emit=misses: one line per miss before the summary", uint64(lines-1) == sum.Misses,
		"%d lines before the summary, summary counts %d misses", lines-1, sum.Misses) && ok
	if wantAccesses != 0 {
		ok = chk.expect("classify summary counts every requested access", sum.Accesses == wantAccesses,
			"accesses %d, want %d", sum.Accesses, wantAccesses) && ok
	}
	return sum, ok
}

// checkMRC checks an MRC response: one point per ladder size in
// ascending order, each with conflict + capacity + compulsory == misses
// <= accesses, miss ratios that never rise with cache size, then a
// summary. It returns the access count the points report.
func checkMRC(chk *checks, body []byte, sizes int, wantAccesses uint64) (uint64, bool) {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	var pts []mrcPoint
	summary := false
	for i, ln := range lines {
		var rec ndjsonRecord
		if err := json.Unmarshal(ln, &rec); err != nil || rec.Error != "" {
			return 0, chk.expect("mrc response is points then a summary", false, "line %d %.200q (%v)", i, ln, err)
		}
		switch {
		case rec.Point != nil && !summary:
			pts = append(pts, *rec.Point)
		case rec.Summary != nil && i == len(lines)-1:
			summary = true
		default:
			return 0, chk.expect("mrc response is points then a summary", false, "unexpected line %d %.200q", i, ln)
		}
	}
	if !chk.expect("mrc response is points then a summary", summary && len(pts) == sizes,
		"%d points (want %d), summary %v", len(pts), sizes, summary) {
		return 0, false
	}
	ok := true
	for i, p := range pts {
		m := p.MCT
		ok = chk.expect("mrc point: conflict + capacity + compulsory == misses <= accesses",
			m.Conflict+m.Capacity+m.Compulsory == m.Misses && m.Misses <= m.Accesses,
			"point %+v", p) && ok
		if i > 0 {
			prev := pts[i-1]
			ok = chk.expect("mrc miss ratios never increase with cache size",
				p.SizeKB > prev.SizeKB && p.MissRatio <= prev.MissRatio && m.MissRatio <= prev.MCT.MissRatio,
				"%dKB (sampled %v, exact %v) after %dKB (sampled %v, exact %v)",
				p.SizeKB, p.MissRatio, m.MissRatio, prev.SizeKB, prev.MissRatio, prev.MCT.MissRatio) && ok
		}
	}
	if wantAccesses != 0 {
		ok = chk.expect("mrc points count every requested access", pts[0].MCT.Accesses == wantAccesses,
			"accesses %d, want %d", pts[0].MCT.Accesses, wantAccesses) && ok
	}
	return pts[0].MCT.Accesses, ok
}

// describeFailure renders a failed request for the checks.
func describeFailure(req *request, status int, err error, body []byte) string {
	if err != nil {
		return fmt.Sprintf("%s %s: %v", req.kind, req.path, err)
	}
	return fmt.Sprintf("%s %s: status %d: %.200q", req.kind, req.path, status, body)
}
