// Package client is the shared resilient HTTP client for mct services:
// jittered exponential backoff that honors Retry-After, per-request
// idempotency keys (so the service can dedupe retries against its job
// journal and never compute the same work twice), and opt-in hedged
// requests for tail-latency-sensitive callers. cmd/mctload drives all
// its traffic through this package; tests point it at chaos-wrapped
// listeners from internal/faultinject to prove convergence under
// injected resets, latency, and black holes.
//
// The client retries whole logical requests, not just connection
// attempts: a connection reset halfway through reading a response body
// re-issues the request with the SAME idempotency key, and the service
// replays the journaled outcome instead of recomputing. That contract is
// what lets Do guarantee either a complete response or a classified
// error — never a torn half-response.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// IdempotencyHeader carries the per-logical-request key the service
// dedupes on. Every retry and every hedge of one Do call sends the same
// value.
const IdempotencyHeader = "X-Mct-Idempotency-Key"

// FailureKind buckets request failures for the mctload error taxonomy.
// The string values appear verbatim as loadgen.LoadResult.ByFailure keys.
type FailureKind string

const (
	FailNone      FailureKind = ""
	FailConnReset FailureKind = "conn_reset"
	FailTimeout   FailureKind = "timeout"
	FailConnect   FailureKind = "connect"
	FailHTTP429   FailureKind = "http_429"
	FailHTTP503   FailureKind = "http_503"
	FailHTTP5xx   FailureKind = "http_5xx"
	FailOther     FailureKind = "other"
)

// Classify maps a transport error or HTTP status onto the taxonomy.
// Pass status 0 when err is a transport-level failure.
func Classify(err error, status int) FailureKind {
	switch {
	case err == nil && status < 400:
		return FailNone
	case status == http.StatusTooManyRequests:
		return FailHTTP429
	case status == http.StatusServiceUnavailable:
		return FailHTTP503
	case status >= 500:
		return FailHTTP5xx
	case status >= 400:
		return FailOther
	}
	var ne net.Error
	switch {
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return FailConnReset
	case errors.Is(err, syscall.ECONNREFUSED):
		return FailConnect
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	case errors.As(err, &ne) && ne.Timeout():
		return FailTimeout
	default:
		return FailOther
	}
}

// retryable reports whether a failure of this kind may succeed on
// re-issue. 4xx other than 429 are the caller's bug; everything
// transport-shaped or overload-shaped is worth another attempt.
func (k FailureKind) retryable() bool {
	switch k {
	case FailConnReset, FailTimeout, FailConnect, FailHTTP429, FailHTTP503, FailHTTP5xx:
		return true
	}
	return false
}

// Options configures a Client. The zero value plus BaseURL is usable.
type Options struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8047".
	BaseURL string
	// HTTPClient overrides the underlying transport (tests inject chaos
	// round-trippers here). Default: a plain client with no global timeout
	// — deadlines come from the caller's context.
	HTTPClient *http.Client
	// MaxAttempts bounds total HTTP attempts per logical request (first
	// attempt and any hedge copies included) — a hedged try consumes two
	// attempts when the hedge actually launches. Default 5.
	MaxAttempts int
	// BaseBackoff is the first retry delay before jitter; doubles each
	// attempt. Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 5s.
	MaxBackoff time.Duration
	// HedgeAfter, when positive, arms hedging: a request marked
	// Request.Hedge that has not finished after this delay gets a second
	// in-flight copy (same idempotency key); first result wins. Zero
	// disables hedging entirely.
	HedgeAfter time.Duration
	// ClientID is sent as X-Mct-Client for per-client fairness.
	ClientID string
	// Seed makes backoff jitter and idempotency keys reproducible in
	// tests. Zero draws a random seed — required in production so two
	// processes never mint colliding idempotency keys.
	Seed uint64
	// Logf, when set, receives one line per retry/hedge decision.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			o.Seed = binary.LittleEndian.Uint64(b[:])
		}
		if o.Seed == 0 {
			o.Seed = 0x9e3779b97f4a7c15
		}
	}
	return o
}

// Request is one logical request. Body is a byte slice, not a reader,
// precisely so every retry and hedge can replay it.
type Request struct {
	Method      string // default POST when Body != nil, else GET
	Path        string // joined to Options.BaseURL, e.g. "/v1/classify"
	Body        []byte
	ContentType string
	Header      http.Header // optional extras (merged last)
	// Hedge opts this request into hedging (requires Options.HedgeAfter).
	Hedge bool
	// NoIdempotency suppresses the idempotency key for requests that are
	// intentionally non-idempotent. Default is to always send one.
	NoIdempotency bool
	// IdempotencyKey, when set, is sent verbatim instead of a freshly
	// minted key. Forwarding layers use this to propagate the caller's
	// key unchanged, so the idempotency store one hop away dedupes the
	// caller's retries exactly as the first hop would have.
	IdempotencyKey string
}

// Response is a fully-read reply: Do never hands back a stream that can
// tear mid-read.
type Response struct {
	Status   int
	Header   http.Header
	Body     []byte
	Attempts int  // total HTTP attempts issued (hedges included)
	Hedged   bool // a hedge was launched for this request
}

// Error is the terminal failure of a Do call after retries exhausted.
// Target names the base URL the failure terminated against, so callers
// juggling several clients (multi-target mctload, cluster forwarding)
// can attribute the failure to a node instead of aggregating across the
// fleet.
type Error struct {
	Kind     FailureKind
	Status   int // last HTTP status, 0 for transport failures
	Attempts int
	Target   string // the client's BaseURL
	Err      error
}

func (e *Error) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("client: %s (HTTP %d) from %s after %d attempts: %v", e.Kind, e.Status, e.Target, e.Attempts, e.Err)
	}
	return fmt.Sprintf("client: %s from %s after %d attempts: %v", e.Kind, e.Target, e.Attempts, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// KindOf extracts the taxonomy bucket from any error returned by Do.
func KindOf(err error) FailureKind {
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Kind
	}
	if err != nil {
		return Classify(err, 0)
	}
	return FailNone
}

// Stats aggregates the client's lifetime retry activity.
type Stats struct {
	Attempts uint64            `json:"attempts"`
	Retries  uint64            `json:"retries"`
	Hedges   uint64            `json:"hedges"`
	ByKind   map[string]uint64 `json:"by_failure,omitempty"`
}

// Client issues resilient requests against one base URL. Safe for
// concurrent use.
type Client struct {
	opts     Options
	attempts atomic.Uint64
	retries  atomic.Uint64
	hedges   atomic.Uint64
	keySeq   atomic.Uint64

	mu     sync.Mutex
	byKind map[FailureKind]uint64
}

// New builds a Client. BaseURL is required.
func New(opts Options) (*Client, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("client: BaseURL is required")
	}
	return &Client{opts: opts.withDefaults(), byKind: map[FailureKind]uint64{}}, nil
}

// Target returns the client's base URL, the address Error.Target and
// per-target load attribution report against.
func (c *Client) Target() string { return c.opts.BaseURL }

// Stats snapshots the lifetime counters.
func (c *Client) Stats() Stats {
	s := Stats{
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
		Hedges:   c.hedges.Load(),
		ByKind:   map[string]uint64{},
	}
	c.mu.Lock()
	for k, n := range c.byKind {
		s.ByKind[string(k)] = n
	}
	c.mu.Unlock()
	if len(s.ByKind) == 0 {
		s.ByKind = nil
	}
	return s
}

func (c *Client) noteKind(k FailureKind) {
	if k == FailNone {
		return
	}
	c.mu.Lock()
	c.byKind[k]++
	c.mu.Unlock()
}

// splitmix64 is the repo-wide deterministic PRNG step (runner retry
// jitter, loadgen traffic, chaos scheduling all use the same constants).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newKey mints one idempotency key: seed-derived so tests are
// reproducible, sequence-derived so concurrent requests never collide.
func (c *Client) newKey() string {
	n := c.keySeq.Add(1)
	a := splitmix64(c.opts.Seed ^ n)
	b := splitmix64(a ^ 0xda942042e4dd58b5)
	return fmt.Sprintf("%016x%016x", a, b)
}

// backoff computes the pre-jitter-scaled delay before retry number
// `retry` (1-based), folding in any server-provided Retry-After as a
// floor: the server knows its brownout horizon better than our curve.
func (c *Client) backoff(retry int, retryAfter time.Duration, rngState *uint64) time.Duration {
	d := c.opts.BaseBackoff << (retry - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	// Jitter to 50–150% so a synchronized client fleet decorrelates.
	*rngState = splitmix64(*rngState)
	frac := 0.5 + float64(*rngState>>11)/float64(1<<53)
	d = time.Duration(float64(d) * frac)
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a Retry-After header (delta-seconds or
// HTTP-date). Zero when absent or unparseable.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Do runs one logical request to completion: attempts, backoff, hedges
// and all. On success the Response body is fully read. On failure the
// returned error is an *Error carrying the taxonomy bucket.
func (c *Client) Do(ctx context.Context, req Request) (*Response, error) {
	if req.Method == "" {
		if req.Body != nil {
			req.Method = http.MethodPost
		} else {
			req.Method = http.MethodGet
		}
	}
	key := ""
	if !req.NoIdempotency {
		if req.IdempotencyKey != "" {
			key = req.IdempotencyKey
		} else {
			key = c.newKey()
		}
	}

	rng := splitmix64(c.opts.Seed ^ c.keySeq.Load())
	hedged := false
	var lastErr error
	var lastStatus int
	attempts := 0
	for try := 1; ; try++ {
		var resp *Response
		var err error
		var n int
		if req.Hedge && c.opts.HedgeAfter > 0 {
			resp, err, n = c.attemptHedged(ctx, req, key)
			if n > 1 {
				hedged = true
			}
		} else {
			resp, err = c.attempt(ctx, req, key)
			n = 1
		}
		attempts += n

		kind, retryAfter := c.outcome(resp, err)
		if kind == FailNone {
			resp.Attempts = attempts
			resp.Hedged = hedged
			return resp, nil
		}
		c.noteKind(kind)
		if err != nil {
			lastErr, lastStatus = err, 0
		} else {
			lastErr = fmt.Errorf("HTTP %d: %s", resp.Status, firstLine(resp.Body))
			lastStatus = resp.Status
		}

		if !kind.retryable() || attempts >= c.opts.MaxAttempts || ctx.Err() != nil {
			return nil, &Error{Kind: kind, Status: lastStatus, Attempts: attempts, Target: c.opts.BaseURL, Err: lastErr}
		}
		d := c.backoff(try, retryAfter, &rng)
		if c.opts.Logf != nil {
			c.opts.Logf("client: %s %s attempt %d failed (%s); retrying in %v",
				req.Method, req.Path, try, kind, d.Round(time.Millisecond))
		}
		c.retries.Add(1)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, &Error{Kind: kind, Status: lastStatus, Attempts: attempts, Target: c.opts.BaseURL,
				Err: fmt.Errorf("%w (canceled during backoff after %v)", lastErr, ctx.Err())}
		}
	}
}

// outcome classifies one attempt's result and extracts the server's
// Retry-After hint if any.
func (c *Client) outcome(resp *Response, err error) (FailureKind, time.Duration) {
	if err != nil {
		return Classify(err, 0), 0
	}
	if resp.Status < 400 {
		return FailNone, 0
	}
	return Classify(nil, resp.Status), parseRetryAfter(resp.Header)
}

// attempt issues exactly one HTTP request and reads the full body. Body
// read errors are attempt failures — the caller retries with the same
// idempotency key rather than surfacing a torn stream.
func (c *Client) attempt(ctx context.Context, req Request, key string) (*Response, error) {
	c.attempts.Add(1)
	hr, err := http.NewRequestWithContext(ctx, req.Method, c.opts.BaseURL+req.Path,
		bytes.NewReader(req.Body))
	if err != nil {
		return nil, err
	}
	if req.ContentType != "" {
		hr.Header.Set("Content-Type", req.ContentType)
	}
	if c.opts.ClientID != "" {
		hr.Header.Set("X-Mct-Client", c.opts.ClientID)
	}
	if key != "" {
		hr.Header.Set(IdempotencyHeader, key)
	}
	for k, vs := range req.Header {
		for _, v := range vs {
			hr.Header.Add(k, v)
		}
	}
	resp, err := c.opts.HTTPClient.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading response body: %w", err)
	}
	return &Response{Status: resp.StatusCode, Header: resp.Header, Body: body}, nil
}

// attemptHedged races up to two copies of one attempt: the hedge
// launches if the primary is still in flight after HedgeAfter. First
// success wins and cancels the other; if both fail the primary's error
// is reported. Returns how many copies actually launched.
func (c *Client) attemptHedged(ctx context.Context, req Request, key string) (*Response, error, int) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp *Response
		err  error
	}
	ch := make(chan result, 2)
	launch := func() { go func() { r, e := c.attempt(hctx, req, key); ch <- result{r, e} }() }
	launch()
	launched, outstanding := 1, 1
	timer := time.NewTimer(c.opts.HedgeAfter)
	defer timer.Stop()

	var firstFail *result
	for {
		select {
		case <-timer.C:
			if launched == 1 {
				launched, outstanding = 2, outstanding+1
				c.hedges.Add(1)
				if c.opts.Logf != nil {
					c.opts.Logf("client: hedging %s %s after %v", req.Method, req.Path, c.opts.HedgeAfter)
				}
				launch()
			}
		case r := <-ch:
			outstanding--
			if r.err == nil && r.resp.Status < 400 {
				return r.resp, nil, launched
			}
			if firstFail == nil {
				firstFail = &r
			}
			if outstanding == 0 {
				return firstFail.resp, firstFail.err, launched
			}
			// One copy failed, the other is still running: let it finish.
		case <-ctx.Done():
			return nil, ctx.Err(), launched
		}
	}
}

// firstLine trims an error body to its first line for error messages.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// Kinds lists the taxonomy buckets in stable report order.
func Kinds() []FailureKind {
	ks := []FailureKind{FailConnReset, FailTimeout, FailConnect, FailHTTP429, FailHTTP503, FailHTTP5xx, FailOther}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
