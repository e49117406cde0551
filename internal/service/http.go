package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/classify   classify a workload spec (JSON) or an uploaded
//	                    binary trace (any other content type) — NDJSON
//	POST /v1/sweep      run an experiment sweep — NDJSON
//	POST /v1/mrc        SHARDS-sampled miss-ratio curve with the MCT
//	                    conflict/capacity split per size, from a spec
//	                    (JSON) or an uploaded trace — NDJSON
//	GET  /v1/jobs/{id}  job status, attempts, partial failures
//	GET  /v1/trace/{job} the job's buffered trace spans — NDJSON
//	GET  /healthz       200 ok / 503 draining
//	GET  /metrics       the metric registry as Prometheus text
//	                    exposition (version 0.0.4)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.idempotent(s.handleClassify))
	mux.HandleFunc("POST /v1/sweep", s.idempotent(s.handleSweep))
	mux.HandleFunc("POST /v1/mrc", s.idempotent(s.handleMRC))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/trace/{job}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Internal peer-to-peer endpoints (cluster.go). Registered even when
	// single-node: a cell request is just "compute locally and memoize",
	// and a node with -peers empty may still be listed as a peer by others.
	mux.HandleFunc("POST /v1/cluster/cell", s.idempotent(s.handleClusterCell))
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	return mux
}

// statusFor maps the service's error taxonomy to HTTP statuses. It walks
// wrap chains with errors.Is, so a trace limit violation buried inside a
// TaskError inside a MultiError still reads as 413 — the reason
// MultiError's multi-branch Unwrap matters to the API layer.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, trace.ErrTraceTooLarge):
		return http.StatusRequestEntityTooLarge // 413
	case errors.Is(err, ErrBusy), errors.Is(err, ErrClientBusy), errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, ErrDraining), errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest // 400
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout // 504
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError // 500
	}
}

// errorBody is the JSON error envelope for non-streaming failures.
// JobID is present whenever the request got far enough to allocate a
// job, so a client holding a failed response can still GET
// /v1/jobs/{id} for the attempt/failure detail.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	JobID  string `json:"job_id,omitempty"`
}

// retryAfterValue renders a duration as a Retry-After header value
// (whole seconds, minimum 1 — the header has no finer granularity).
func retryAfterValue(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func writeErr(w http.ResponseWriter, err error) { writeErrJob(w, err, "") }

// writeErrJob writes the error envelope. Backpressure statuses carry a
// Retry-After hint (preserving any value a more specific layer — the
// brownout controller — already set): 429 means "this instance, soon",
// 503 means "this instance is draining or shedding, give it longer".
//
// Error responses never keep the connection alive. Most of them go out
// before the request body has been read to EOF, and with full duplex
// enabled (handleClassify) the server's post-handler body drain fires
// the deferred background-read hook right before the keep-alive peek —
// a connection-killing panic inside net/http (Go 1.24). Closing instead
// mirrors what the server does for undrained bodies without full
// duplex, and every caller here is an error or shed path where the
// client re-dialing is acceptable.
func writeErrJob(w http.ResponseWriter, err error, jobID string) {
	status := statusFor(err)
	w.Header().Set("Connection", "close")
	if w.Header().Get("Retry-After") == "" {
		switch status {
		case http.StatusTooManyRequests:
			w.Header().Set("Retry-After", retryAfterValue(time.Second))
		case http.StatusServiceUnavailable:
			w.Header().Set("Retry-After", retryAfterValue(2*time.Second))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Status: status, JobID: jobID})
}

// clientID identifies the requester for per-client fairness: an explicit
// X-Mct-Client header, else the peer address without the port.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Mct-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// ndjsonWriter streams an NDJSON response, flushing after every write
// so clients see results as they exist rather than when the response
// buffer fills. Writes are whole lines: a batch of access lines from
// runClassify (one flush per batch, not per line), or one JSON value
// through emit.
type ndjsonWriter struct {
	w    http.ResponseWriter
	f    http.Flusher
	line []byte
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	f, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	return &ndjsonWriter{w: w, f: f}
}

// write sends p, one or more complete lines, and flushes.
func (nw *ndjsonWriter) write(p []byte) error {
	if _, err := nw.w.Write(p); err != nil {
		return err
	}
	if nw.f != nil {
		nw.f.Flush()
	}
	return nil
}

// emit sends v as one JSON line.
func (nw *ndjsonWriter) emit(v any) error {
	var err error
	if nw.line, err = appendJSONLine(nw.line[:0], v); err != nil {
		return err
	}
	return nw.write(nw.line)
}

// createJob registers a job in the registry and the journal.
func (s *Service) createJob(id, kind, client, idem string) {
	s.jobs.CreateWithID(id, kind, client)
	if idem != "" {
		s.jobs.update(id, func(j *Job) { j.IdemKey = idem })
	}
	s.jlog.create(id, kind, client, idem)
}

// startJob marks a job running, journaling the spec so a crashed
// process can re-drive it (nil spec: the upload path, not re-drivable).
func (s *Service) startJob(id string, spec any) {
	s.jobs.Start(id)
	s.jlog.start(id, spec)
}

// stateOf maps a job's final error to its journal/registry state, the
// same taxonomy jobs.Finish applies.
func stateOf(err error) (JobState, string) {
	switch {
	case err == nil:
		return JobDone, ""
	case errors.Is(err, context.Canceled):
		return JobCanceled, err.Error()
	default:
		return JobFailed, err.Error()
	}
}

// finishJob records a job's outcome in the registry and the journal and
// feeds the retry metric. Every handler calls it before it writes the
// response's last line (summary, error record, or a memoized body), so a
// client that has read a response to its end always finds the job
// terminal at GET /v1/jobs/{id}. The emitted count therefore includes
// that last line, which the client may still fail to receive.
func (s *Service) finishJob(id string, err error, records, emitted, hits, misses uint64) {
	s.jobs.Finish(id, err, records, emitted, hits, misses)
	state, errText := stateOf(err)
	s.jlog.finish(id, state, errText)
	if err != nil {
		fails, _ := failuresOf(err)
		s.noteRetries(fails)
	}
}

// handleClassify serves POST /v1/classify. A JSON body is a workload
// spec, batched with its contemporaries and memoized; any other body is
// a binary trace, streamed through the classifier under the service's
// size limits and cancellation. Either way the response is NDJSON and
// the job ID rides the X-Mct-Job header (never the body, which must be
// byte-identical between cold and cache-warm runs).
func (s *Service) handleClassify(w http.ResponseWriter, r *http.Request) {
	// Full duplex from the start: without it, HTTP/1's response path
	// synchronously drains any unread request body before the first
	// response byte goes out — an admission rejection of a slow or
	// withheld upload would block on the client instead of returning 429
	// immediately. (HTTP/2 is duplex natively; ErrNotSupported is fine.)
	_ = http.NewResponseController(w).EnableFullDuplex()

	// Brownout gate before any real work: the upload path counts as
	// streaming (shed first), the JSON-spec path sheds only at the
	// low-priority level.
	streaming := !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json")
	if s.shed(w, r, streaming) {
		return
	}

	client := clientID(r)
	id := s.jobs.NewID()
	ctx, root := obs.Start(obs.Inject(r.Context(), s.ring, id), "http.classify")
	root.Str("client", client)
	defer root.End()
	// Carry the caller's identity into the fan-out: forwarded cells
	// propagate the job/trace ID, idempotency key, and priority (cluster.go).
	ctx = withReqMeta(ctx, reqMeta{jobID: id, idemKey: r.Header.Get(IdemHeader), priority: r.Header.Get(PriorityHeader)})
	r = r.WithContext(ctx)
	defer func(t0 time.Time) { s.hClassif.ObserveDuration(time.Since(t0)) }(time.Now())

	release, err := s.admit(r.Context(), client)
	if err != nil {
		root.Err(err)
		writeErr(w, err)
		return
	}
	defer release()

	s.createJob(id, "classify", client, r.Header.Get(IdemHeader))
	w.Header().Set("X-Mct-Job", id)

	if !streaming {
		s.classifySpecRequest(w, r, id)
		return
	}
	s.classifyUploadRequest(w, r, id)
}

// admit runs the admission gate under a span and the admission-wait
// histogram — time spent here is backpressure, visible whether the
// request was accepted or rejected.
func (s *Service) admit(ctx context.Context, client string) (func(), error) {
	t0 := time.Now()
	_, sp := obs.Start(ctx, "service.admit")
	release, err := s.adm.Admit(ctx, client)
	sp.Err(err)
	sp.End()
	s.hAdmit.ObserveDuration(time.Since(t0))
	return release, err
}

// classifySpecRequest handles the JSON-spec flavor of /v1/classify.
func (s *Service) classifySpecRequest(w http.ResponseWriter, r *http.Request, id string) {
	var spec ClassifySpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		err = fmt.Errorf("%w: decoding spec: %v", ErrBadRequest, err)
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}
	if err := spec.normalize(false, s.cfg.MaxSpecAccesses); err != nil {
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}

	s.startJob(id, spec)
	done, err := s.bat.submit(r.Context(), spec)
	if err == nil {
		select {
		case res := <-done:
			if res.err != nil {
				err = res.err
				break
			}
			var hits, misses uint64
			if res.hit {
				hits = 1
			} else {
				misses = 1
			}
			s.finishJob(id, nil, res.art.Stats.Records, res.art.Stats.Emitted, hits, misses)
			w.Header().Set("Content-Type", "application/x-ndjson")
			// A failed write means the client left; the result is memoized,
			// so its retry replays these bytes.
			_, _ = w.Write(res.art.Body)
			return
		case <-r.Context().Done():
			err = r.Context().Err()
		}
	}
	s.finishJob(id, err, 0, 0, 0, 0)
	writeErrJob(w, err, id)
}

// classifyUploadRequest handles the binary-trace flavor of /v1/classify:
// the body is an MCTR trace, classified as it is read — no buffering of
// the upload, no memoization (the trace's content is unknown until it
// has already been simulated). Cache geometry comes from query
// parameters. Limit violations and malformed headers fail before any
// response byte; mid-stream failures append a trailing error record.
func (s *Service) classifyUploadRequest(w http.ResponseWriter, r *http.Request, id string) {
	spec, err := specFromQuery(r)
	if err == nil {
		err = spec.normalize(true, 0)
	}
	if err != nil {
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}

	// No spec in the journal: the trace bytes live only in this request
	// body, so this job is not re-drivable after a crash.
	s.startJob(id, nil)
	rd, err := trace.NewReaderContext(r.Context(), r.Body, s.cfg.Limits)
	if err != nil {
		if !errors.Is(err, trace.ErrTraceTooLarge) && !errors.Is(err, context.Canceled) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}

	nw := newNDJSONWriter(w)
	_, sp := obs.Start(r.Context(), "classify.upload")
	st, sum, err := runClassify(r.Context(), spec, rd, nw.write)
	sp.Int("records", int64(st.Records))
	sp.Err(err)
	sp.End()
	if err != nil {
		// The status line is long gone; the error becomes the last record
		// and the job's failure state.
		s.finishJob(id, err, st.Records, st.Emitted+1, 0, 0)
		_ = nw.emit(errorBody{Error: err.Error(), Status: statusFor(err)})
		return
	}
	s.records.Add(st.Records)
	s.finishJob(id, nil, st.Records, st.Emitted+1, 0, 0)
	_ = nw.emit(sum)
}

// specFromQuery maps the upload path's query parameters onto a spec.
func specFromQuery(r *http.Request) (ClassifySpec, error) {
	var spec ClassifySpec
	q := r.URL.Query()
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"size_kb", &spec.SizeKB},
		{"assoc", &spec.Assoc},
		{"line", &spec.LineSize},
		{"tag_bits", &spec.TagBits},
	} {
		if v := q.Get(f.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return spec, fmt.Errorf("%w: query %s=%q is not an integer", ErrBadRequest, f.name, v)
			}
			*f.dst = n
		}
	}
	spec.Emit = q.Get("emit")
	spec.Index = q.Get("index")
	if v := q.Get("index_seed"); v != "" {
		n, err := strconv.ParseUint(v, 0, 64)
		if err != nil {
			return spec, fmt.Errorf("%w: query index_seed=%q is not an unsigned integer", ErrBadRequest, v)
		}
		spec.IndexSeed = n
	}
	return spec, nil
}

// handleSweep serves POST /v1/sweep: validate the selection (shared with
// cmd/paperbench), fan the artifacts through the supervised pool, and
// stream one NDJSON record per artifact plus a summary. Failed cells
// stream error records and surface in the job's failure list; they are
// neither cached nor checkpointed, so resubmitting recomputes exactly
// those.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r, false) {
		return
	}
	client := clientID(r)
	id := s.jobs.NewID()
	ctx, root := obs.Start(obs.Inject(r.Context(), s.ring, id), "http.sweep")
	root.Str("client", client)
	defer root.End()
	ctx = withReqMeta(ctx, reqMeta{jobID: id, idemKey: r.Header.Get(IdemHeader), priority: r.Header.Get(PriorityHeader)})
	r = r.WithContext(ctx)
	defer func(t0 time.Time) { s.hSweep.ObserveDuration(time.Since(t0)) }(time.Now())

	release, err := s.admit(r.Context(), client)
	if err != nil {
		root.Err(err)
		writeErr(w, err)
		return
	}
	defer release()

	s.createJob(id, "sweep", client, r.Header.Get(IdemHeader))
	w.Header().Set("X-Mct-Job", id)

	var spec SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		err = fmt.Errorf("%w: decoding spec: %v", ErrBadRequest, err)
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}
	p, arts, err := spec.normalize()
	if err != nil {
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}

	s.startJob(id, spec)
	lines, hits, misses, runErr := s.runSweep(r.Context(), p, arts, spec.Seeds)

	nw := newNDJSONWriter(w)
	ok := 0
	for i, line := range lines {
		if line.Error == "" {
			ok++
		}
		if err := nw.emit(line); err != nil {
			s.finishJob(id, err, uint64(len(lines)), uint64(i), hits, misses)
			return
		}
	}
	s.finishJob(id, runErr, uint64(len(lines)), uint64(len(lines))+1, hits, misses)
	_ = nw.emit(struct {
		Summary sweepSummary `json:"summary"`
	}{sweepSummary{Experiments: len(lines), OK: ok, Failed: len(lines) - ok}})
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf("unknown job %q (evicted or never created)", id), Status: http.StatusNotFound})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(job)
}

// handleHealthz serves GET /healthz: 503 once draining so load
// balancers route away while in-flight work finishes.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.adm.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"draining"}` + "\n"))
		return
	}
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// handleMetrics serves GET /metrics: the registry in the Prometheus text
// exposition format (version 0.0.4), its only format. Query parameters
// are ignored, so scrapers that send ?format=prometheus get the same
// text. Metrics never sit behind the admission gate — a draining or
// saturated instance must still be observable.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// handleTrace serves GET /v1/trace/{job}: the job's spans still held by
// the bounded ring, oldest first, as NDJSON. A known job whose spans
// have been evicted returns an empty body — the ring is a tail, not an
// archive.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r, true) {
		return
	}
	id := r.PathValue("job")
	recs := s.ring.ByTrace(id)
	if _, ok := s.jobs.Get(id); !ok && len(recs) == 0 {
		// Unknown here AND no spans: truly unknown. A forwarded cell's
		// spans land on its owner under the origin's job ID without a
		// local job record, so spans alone are enough to serve the trace.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf("unknown job %q (evicted or never created)", id), Status: http.StatusNotFound})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		_ = enc.Encode(rec)
	}
}
