package service

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
)

// IdemHeader carries a client's idempotency key. Mirrors
// internal/client.IdempotencyHeader (asserted equal by test) — the
// service does not import the client package, nor vice versa.
const IdemHeader = "X-Mct-Idempotency-Key"

// IdemReplayedHeader marks a response served from the idempotency
// replay store rather than computed.
const IdemReplayedHeader = "X-Mct-Idem-Replayed"

// storedResponse is one replayable outcome: status, the headers worth
// replaying, and the body bytes.
type storedResponse struct {
	status int
	jobID  string
	ctype  string
	body   []byte
}

// idemEntry is one key's lifecycle: open while the first request with
// this key executes (duplicates block on done — singleflight), then
// either committed with a response to replay or aborted (retryable
// outcome: the next duplicate becomes the new leader).
type idemEntry struct {
	done chan struct{}
	resp *storedResponse // nil after an abort
}

// idemStore dedupes requests by idempotency key: an in-memory,
// FIFO-bounded map of completed outcomes plus in-flight singleflight.
// Only non-retryable outcomes (2xx, 4xx except 429) are stored — a 503
// or 500 must genuinely retry. Persistence across restarts comes from
// the layers below, not from this store: the job journal re-drives
// interrupted work into the memoization cache, so a post-crash retry
// recomputes nothing even though its key is no longer here.
type idemStore struct {
	mu         sync.Mutex
	entries    map[string]*idemEntry
	order      []string // committed keys, FIFO for eviction
	maxEntries int
	maxBody    int

	replayed atomic.Uint64
	inflight atomic.Uint64 // duplicate-while-running collapses
	stored   atomic.Uint64
}

func newIdemStore(maxEntries, maxBody int) *idemStore {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if maxBody <= 0 {
		maxBody = 4 << 20
	}
	return &idemStore{entries: map[string]*idemEntry{}, maxEntries: maxEntries, maxBody: maxBody}
}

// begin claims the key. leader=true means the caller executes the
// request and must call commit or abort. leader=false returns the entry
// to wait on.
func (st *idemStore) begin(key string) (e *idemEntry, leader bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		return e, false
	}
	e = &idemEntry{done: make(chan struct{})}
	st.entries[key] = e
	return e, true
}

// wait blocks until the leader resolves the entry (or ctx expires) and
// returns the stored response, nil if the leader aborted.
func (e *idemEntry) wait(ctx context.Context) (*storedResponse, error) {
	select {
	case <-e.done:
		return e.resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// commit stores the outcome for replay and releases waiters.
func (st *idemStore) commit(key string, resp *storedResponse) {
	st.mu.Lock()
	e, ok := st.entries[key]
	if ok {
		e.resp = resp
		st.order = append(st.order, key)
		st.stored.Add(1)
		for len(st.order) > st.maxEntries {
			delete(st.entries, st.order[0])
			st.order = st.order[1:]
		}
	}
	st.mu.Unlock()
	if ok {
		close(e.done)
	}
}

// abort drops the key (retryable outcome, or a body too large to
// retain) and releases waiters empty-handed — the next request with
// this key executes for real.
func (st *idemStore) abort(key string) {
	st.mu.Lock()
	e, ok := st.entries[key]
	if ok {
		delete(st.entries, key)
	}
	st.mu.Unlock()
	if ok {
		close(e.done)
	}
}

// storable reports whether an outcome should be retained for replay:
// only statuses a well-behaved client would not retry. 499 ("client
// closed request") is the canonical counter-example: it records that
// the first attempt's connection died mid-request — replaying it to the
// retry would hand the client back its own failure and make the abort
// permanent.
func storable(status int) bool {
	if status >= 500 || status == http.StatusTooManyRequests || status == 499 {
		return false
	}
	return true
}

// recordingWriter tees a response into memory while passing it through,
// so a committed outcome can be replayed byte-identically. Recording
// stops (and the outcome becomes non-storable) past maxBody — giant
// streams fall back to memo-cache-backed recompute on retry. Any
// underlying write failure is remembered in err: it means the client
// saw at most a prefix of the body, so what was recorded must never be
// committed as a complete outcome.
type recordingWriter struct {
	http.ResponseWriter
	status   int
	body     []byte
	maxBody  int
	overflow bool
	err      error
}

func (rw *recordingWriter) WriteHeader(code int) {
	if rw.status == 0 {
		rw.status = code
	}
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recordingWriter) Write(p []byte) (int, error) {
	if rw.status == 0 {
		rw.status = http.StatusOK
	}
	if !rw.overflow {
		if len(rw.body)+len(p) > rw.maxBody {
			rw.overflow = true
			rw.body = nil
		} else {
			rw.body = append(rw.body, p...)
		}
	}
	n, err := rw.ResponseWriter.Write(p)
	if err != nil && rw.err == nil {
		rw.err = err
	}
	return n, err
}

// Flush keeps NDJSON streaming working through the recorder.
func (rw *recordingWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// EnableFullDuplex is forwarded via ResponseController's Unwrap path.
func (rw *recordingWriter) Unwrap() http.ResponseWriter { return rw.ResponseWriter }

// idempotent wraps a handler with key-based deduplication. Requests
// without a key pass straight through. Duplicates of an in-flight
// request wait for the original (singleflight); duplicates of a
// committed outcome replay it byte-identically with IdemReplayedHeader
// set, never touching admission or compute.
func (s *Service) idempotent(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(IdemHeader)
		if key == "" || s.idem == nil {
			h(w, r)
			return
		}
		for {
			entry, leader := s.idem.begin(key)
			if leader {
				rw := &recordingWriter{ResponseWriter: w, maxBody: s.idem.maxBody}
				committed := false
				// Runs on panic too: net/http recovers handler panics
				// per-connection, and without this abort the entry's done
				// channel would never close — every later request with the
				// key would block until its own deadline, poisoning the key
				// until restart.
				defer func() {
					if !committed {
						s.idem.abort(key)
					}
				}()
				h(rw, r)
				if rw.status == 0 {
					rw.status = http.StatusOK
				}
				// A failed underlying write or a disconnected client means
				// the recorded body may be a torn prefix (a streaming
				// handler stops mid-NDJSON when emit fails) even though the
				// status was already 200. Committing it would replay the
				// truncation as a complete response; aborting lets the
				// retry recompute via the memo cache instead.
				if storable(rw.status) && !rw.overflow && rw.err == nil && r.Context().Err() == nil {
					s.idem.commit(key, &storedResponse{
						status: rw.status,
						jobID:  rw.Header().Get("X-Mct-Job"),
						ctype:  rw.Header().Get("Content-Type"),
						body:   rw.body,
					})
					committed = true
				}
				return
			}
			s.idem.inflight.Add(1)
			resp, err := entry.wait(r.Context())
			if err != nil {
				writeErr(w, err)
				return
			}
			if resp == nil {
				// The leader's outcome was retryable; this duplicate takes
				// over as leader on the next loop.
				continue
			}
			s.idem.replayed.Add(1)
			if resp.ctype != "" {
				w.Header().Set("Content-Type", resp.ctype)
			}
			if resp.jobID != "" {
				w.Header().Set("X-Mct-Job", resp.jobID)
			}
			w.Header().Set(IdemReplayedHeader, "1")
			w.WriteHeader(resp.status)
			_, _ = w.Write(resp.body)
			return
		}
	}
}
