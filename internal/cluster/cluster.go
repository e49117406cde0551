package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// Wire protocol headers. TraceIDHeader carries the originating job's
// trace ID so the owner's spans land in the same trace; NodeHeader
// names the node that served a response; CacheHeader reports whether
// the owner served the cell from its memo cache.
const (
	TraceIDHeader = "X-Mct-Trace-Id"
	NodeHeader    = "X-Mct-Node"
	CacheHeader   = "X-Mct-Cache"
)

// CellRequest is the body of POST /v1/cluster/cell: one memoizable unit
// of work, addressed by slug and its canonical JSON payload. Key is the
// memo key the forwarder derived (the owner re-derives it from the
// payload; carrying it here lets both sides agree on the singleflight
// identity without trusting each other's derivation).
type CellRequest struct {
	Slug    string          `json:"slug"`
	Payload json.RawMessage `json:"payload"`
	Key     string          `json:"key,omitempty"`
}

// ForwardMeta is the caller context a forward must carry across the
// wire unchanged: the job's trace ID, the brownout priority, and the
// idempotency key the owner dedupes on.
type ForwardMeta struct {
	TraceID  string
	Priority string
	IdemKey  string
}

// Config shapes one node's view of the fleet.
type Config struct {
	// Self is this node's advertised address (must appear in Peers or is
	// added implicitly). Required.
	Self string
	// Peers is the static fleet membership, host:port each.
	Peers []string
	// VNodes is the virtual-node count per peer (0 = DefaultVNodes).
	VNodes int
	// Seed parameterizes the ring hash. Every node in a fleet must use
	// the same seed or they will route cells to different owners.
	Seed uint64
	// ProbeInterval is the health-check cadence (0 = 500ms);
	// ProbeTimeout bounds one probe (0 = 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold consecutive probe failures eject a peer from the
	// ring; one success restores it (0 = 2).
	FailThreshold int
	// StealAfter arms work stealing: a forwarded cell still unanswered
	// after this delay is raced against a local pull-then-compute.
	// Zero disables stealing.
	StealAfter time.Duration
	// ForwardAttempts bounds the resilient client's tries per forward
	// (0 = 4).
	ForwardAttempts int
	// HTTPClient overrides the transport for forwards, pulls, and
	// probes (tests inject httptest or chaos transports).
	HTTPClient *http.Client
	// Logf receives membership transitions. Nil discards.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 4
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// peer is one remote fleet member: its resilient client plus health
// state. fails is touched only by the prober goroutine; healthy is the
// shared flag ring rebuilds read.
type peer struct {
	addr    string
	cl      *client.Client
	healthy atomic.Bool
	fails   int
}

// Counters is a snapshot of the cluster's activity, feeding the
// mct_cluster_* metrics.
type Counters struct {
	Forwards     uint64 // cells sent to a remote owner
	ForwardFails uint64 // forwards that exhausted retries (fell back local)
	Steals       uint64 // straggler cells rescued by the steal pass
	Ejections    uint64 // peers removed from the ring by failed probes
	Restores     uint64 // ejected peers readmitted
	CacheFills   uint64 // remote results written through to the local cache
	CachePulls   uint64 // GET /v1/cache attempts against peers
	PullHits     uint64 // pulls that found the entry remotely
}

// Cluster is one node's membership, routing, and forwarding state. A
// nil *Cluster is valid and means "single node": every method returns
// the zero-cost local answer.
type Cluster struct {
	cfg   Config
	self  string
	peers []*peer // remote members only, fixed at New

	ring atomic.Pointer[Ring]

	// inflight singleflights concurrent forwards of the same cell (by
	// memo key), mirroring the idempotency store's leader/waiter shape:
	// N goroutines needing one remote cell issue one HTTP request.
	mu       sync.Mutex
	inflight map[string]*flight

	forwards     atomic.Uint64
	forwardFails atomic.Uint64
	steals       atomic.Uint64
	ejections    atomic.Uint64
	restores     atomic.Uint64
	fills        atomic.Uint64
	pulls        atomic.Uint64
	pullHits     atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Cluster from cfg. Returns (nil, nil) when cfg.Peers is
// empty or names only Self — a single-node fleet needs no cluster at
// all, and the nil receiver keeps that path zero-cost.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	remote := make([]string, 0, len(cfg.Peers))
	seen := map[string]bool{cfg.Self: true}
	for _, p := range cfg.Peers {
		if p == "" || p == cfg.Self || seen[p] {
			continue
		}
		seen[p] = true
		remote = append(remote, p)
	}
	if len(remote) == 0 {
		return nil, nil
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: -self is required when peers are configured")
	}
	c := &Cluster{
		cfg:      cfg,
		self:     cfg.Self,
		inflight: map[string]*flight{},
		stop:     make(chan struct{}),
	}
	for _, addr := range remote {
		cl, err := client.New(client.Options{
			BaseURL:     "http://" + addr,
			HTTPClient:  cfg.HTTPClient,
			MaxAttempts: cfg.ForwardAttempts,
			BaseBackoff: 50 * time.Millisecond,
			MaxBackoff:  2 * time.Second,
			ClientID:    "peer:" + cfg.Self,
			Logf:        cfg.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %s: %w", addr, err)
		}
		p := &peer{addr: addr, cl: cl}
		p.healthy.Store(true) // innocent until probed guilty
		c.peers = append(c.peers, p)
	}
	c.rebuildRing()
	return c, nil
}

// Start launches the health prober. Separate from New so tests can
// exercise routing with probing off.
func (c *Cluster) Start() {
	if c == nil {
		return
	}
	c.wg.Add(1)
	go c.probeLoop()
}

// Close stops the prober and waits for it. Idempotent, nil-safe.
func (c *Cluster) Close() {
	if c == nil {
		return
	}
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Enabled reports whether cluster routing is active.
func (c *Cluster) Enabled() bool { return c != nil && len(c.peers) > 0 }

// Self returns this node's advertised address ("" on the nil cluster).
func (c *Cluster) Self() string {
	if c == nil {
		return ""
	}
	return c.self
}

// StealAfterDelay returns the configured straggler-steal delay (0 =
// stealing off).
func (c *Cluster) StealAfterDelay() time.Duration {
	if c == nil {
		return 0
	}
	return c.cfg.StealAfter
}

// Counters snapshots the activity counters.
func (c *Cluster) Counters() Counters {
	if c == nil {
		return Counters{}
	}
	return Counters{
		Forwards:     c.forwards.Load(),
		ForwardFails: c.forwardFails.Load(),
		Steals:       c.steals.Load(),
		Ejections:    c.ejections.Load(),
		Restores:     c.restores.Load(),
		CacheFills:   c.fills.Load(),
		CachePulls:   c.pulls.Load(),
		PullHits:     c.pullHits.Load(),
	}
}

// NoteSteal counts one straggler steal (the service's hedge fires it).
func (c *Cluster) NoteSteal() {
	if c != nil {
		c.steals.Add(1)
	}
}

// NoteFill counts one remote result written through to the local cache.
func (c *Cluster) NoteFill() {
	if c != nil {
		c.fills.Add(1)
	}
}

// Ring returns the current ring (healthy members only).
func (c *Cluster) Ring() *Ring {
	if c == nil {
		return nil
	}
	return c.ring.Load()
}

// Owner maps a memo key to its owning node. local is true when this
// node owns the key (or the cluster is nil/degraded to self-only).
func (c *Cluster) Owner(key string) (addr string, local bool) {
	if c == nil {
		return "", true
	}
	owner := c.ring.Load().Owner(key)
	if owner == "" || owner == c.self {
		return c.self, true
	}
	return owner, false
}

// rebuildRing recomputes the ring over self plus the currently-healthy
// peers and publishes it atomically.
func (c *Cluster) rebuildRing() {
	members := []string{c.self}
	for _, p := range c.peers {
		if p.healthy.Load() {
			members = append(members, p.addr)
		}
	}
	c.ring.Store(NewRing(members, c.cfg.VNodes, c.cfg.Seed))
}

// probeLoop drives the health checks: every ProbeInterval each peer
// gets one GET /healthz; FailThreshold consecutive failures eject it
// from the ring (its cells compute locally until it recovers), one
// success restores it.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Cluster) probeAll() {
	for _, p := range c.peers {
		ok := c.probeOne(p)
		switch {
		case ok && !p.healthy.Load():
			p.fails = 0
			p.healthy.Store(true)
			c.restores.Add(1)
			c.rebuildRing()
			c.logf("cluster: peer %s restored to ring", p.addr)
		case ok:
			p.fails = 0
		case !ok && p.healthy.Load():
			p.fails++
			if p.fails >= c.cfg.FailThreshold {
				p.healthy.Store(false)
				c.ejections.Add(1)
				c.rebuildRing()
				c.logf("cluster: peer %s ejected after %d failed probes", p.addr, p.fails)
			}
		}
	}
}

// probeOne issues a single bounded health check. A draining peer (503
// healthz) counts as unhealthy: it is shutting down, route around it.
func (c *Cluster) probeOne(p *peer) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// flight is one in-progress remote cell execution shared by every
// concurrent local caller that needs the same key.
type flight struct {
	done chan struct{}
	raw  []byte
	hit  bool
	err  error
}

// ExecCell forwards one cell to its remote owner, singleflighted on the
// memo key: concurrent callers share one HTTP request (and therefore
// one remote computation), the same collapsing the idempotency store
// does server-side. hit reports the owner's cache disposition. The
// error, if any, is terminal after the client's retries — callers fall
// back to pulling or computing locally.
func (c *Cluster) ExecCell(ctx context.Context, owner string, req CellRequest, fm ForwardMeta) ([]byte, bool, error) {
	if c == nil {
		return nil, false, fmt.Errorf("cluster: not configured")
	}
	fkey := owner + "\x00" + req.Key
	for {
		c.mu.Lock()
		if f, ok := c.inflight[fkey]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil && ctx.Err() == nil {
					// The leader failed (possibly canceled); this caller
					// retries as the new leader rather than inheriting a
					// failure that was never its own.
					if _, lead := c.claim(fkey); !lead {
						continue
					}
					return c.lead(ctx, fkey, owner, req, fm)
				}
				return f.raw, f.hit, f.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		c.inflight[fkey] = &flight{done: make(chan struct{})}
		c.mu.Unlock()
		return c.lead(ctx, fkey, owner, req, fm)
	}
}

// claim attempts to become leader for fkey; ok=false means another
// flight is already open (the caller should wait on it via the loop).
func (c *Cluster) claim(fkey string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.inflight[fkey]; ok {
		return nil, false
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[fkey] = f
	return f, true
}

// lead executes the forward as the flight leader and resolves waiters.
func (c *Cluster) lead(ctx context.Context, fkey, owner string, req CellRequest, fm ForwardMeta) ([]byte, bool, error) {
	raw, hit, err := c.forward(ctx, owner, req, fm)
	c.mu.Lock()
	f := c.inflight[fkey]
	delete(c.inflight, fkey)
	c.mu.Unlock()
	if f != nil {
		f.raw, f.hit, f.err = raw, hit, err
		close(f.done)
	}
	return raw, hit, err
}

// forward issues the actual POST /v1/cluster/cell through the peer's
// resilient client (retries, backoff, Retry-After all apply).
func (c *Cluster) forward(ctx context.Context, owner string, req CellRequest, fm ForwardMeta) ([]byte, bool, error) {
	p := c.peerFor(owner)
	if p == nil {
		return nil, false, fmt.Errorf("cluster: unknown peer %q", owner)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: encoding cell: %w", err)
	}
	c.forwards.Add(1)
	hdr := http.Header{}
	if fm.TraceID != "" {
		hdr.Set(TraceIDHeader, fm.TraceID)
	}
	if fm.Priority != "" {
		hdr.Set(PriorityHeader, fm.Priority)
	}
	resp, err := p.cl.Do(ctx, client.Request{
		Method:         http.MethodPost,
		Path:           "/v1/cluster/cell",
		Body:           body,
		ContentType:    "application/json",
		Header:         hdr,
		IdempotencyKey: fm.IdemKey,
	})
	if err != nil {
		c.forwardFails.Add(1)
		return nil, false, err
	}
	return resp.Body, resp.Header.Get(CacheHeader) == "hit", nil
}

// PullCache fetches a finished cell from a peer's memo cache (GET
// /v1/cache/{key}) without triggering any computation. ok=false on a
// clean remote miss; err on transport failure.
func (c *Cluster) PullCache(ctx context.Context, owner, slug, key string) ([]byte, bool, error) {
	if c == nil {
		return nil, false, nil
	}
	p := c.peerFor(owner)
	if p == nil {
		return nil, false, fmt.Errorf("cluster: unknown peer %q", owner)
	}
	c.pulls.Add(1)
	resp, err := p.cl.Do(ctx, client.Request{
		Method:        http.MethodGet,
		Path:          "/v1/cache/" + key + "?slug=" + url.QueryEscape(slug),
		NoIdempotency: true,
	})
	if err != nil {
		var ce *client.Error
		if errors.As(err, &ce) && ce.Status == http.StatusNotFound {
			return nil, false, nil
		}
		return nil, false, err
	}
	c.pullHits.Add(1)
	return resp.Body, true, nil
}

func (c *Cluster) peerFor(addr string) *peer {
	for _, p := range c.peers {
		if p.addr == addr {
			return p
		}
	}
	return nil
}

// PriorityHeader mirrors service.PriorityHeader (asserted equal by
// test) — cluster cannot import service without a cycle.
const PriorityHeader = "X-Mct-Priority"
