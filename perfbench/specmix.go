package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// specPattern is each spec-mix client's repeating block of requests:
// cold classify (c), cold MRC over the default ladder (m), and a
// byte-identical re-send of one of the client's earlier classify specs
// (r). No record of mctd's real request mix exists, so the block sends
// each kind once: every kind's p50 rests on the same sample count, and
// block_p50_ms weighs each kind by its own cost. Clients stop only at
// block boundaries, so the memo-cache hit share is exactly 1/3.
const specPattern = "cmr"

// bodySeed keys the hashes that compare replayed bodies with cold ones.
var bodySeed = maphash.MakeSeed()

// clientCount is the closed loop's client count: one per CPU, at most 2.
func clientCount() int { return max(1, min(2, runtime.NumCPU())) }

// coldSpec is a classify spec a client sent cold, kept for replays.
type coldSpec struct {
	body []byte
	hash uint64
	size int
}

// specClient generates one client's request list from the seed and
// keeps what its replays must reproduce. Each client's replays name only
// its own earlier specs, which a closed loop has already completed, so
// every replay is a memo-cache hit by construction.
type specClient struct {
	id       int
	seed     uint64
	accesses uint64
	n        uint64 // requests generated
	specs    uint64 // cold requests generated, for the fixed interleave
	colds    []coldSpec
	sent     map[byte]int // completed requests by pattern letter
}

// next returns the client's next request of the given pattern letter,
// and for a replay the index of the cold spec it re-sends.
func (c *specClient) next(kind byte) (*request, int) {
	c.n++
	if kind == 'r' {
		if len(c.colds) == 0 {
			return nil, -1
		}
		i := int(derive(c.seed, "replay", c.n) % uint64(len(c.colds)))
		return &request{kind: "replay", path: "/v1/classify", ctype: "application/json", body: c.colds[i].body}, i
	}
	bench := specBenches[(uint64(c.id)+c.specs)%uint64(len(specBenches))]
	c.specs++
	seed := derive(c.seed, "spec", c.n) | 1
	if kind == 'm' {
		body := fmt.Sprintf(`{"workload":%q,"accesses":%d,"seed":%d}`, bench, c.accesses, seed)
		return &request{kind: "mrc", path: "/v1/mrc", ctype: "application/json", body: []byte(body)}, -1
	}
	body := fmt.Sprintf(`{"workload":%q,"accesses":%d,"seed":%d,"emit":"misses"}`, bench, c.accesses, seed)
	return &request{kind: "classify", path: "/v1/classify", ctype: "application/json", body: []byte(body)}, -1
}

// specSession is a booted mctd under spec-mix traffic.
type specSession struct {
	env      *runEnv
	d        *daemon
	hc       *http.Client
	clients  []*specClient
	accesses uint64
}

func startSpecMix(ctx context.Context, env *runEnv) (session, error) {
	return startSpecSession(ctx, env, env.sc.specAccesses)
}

// bootFresh boots mctd on fresh data directories under the run's temp dir.
func bootFresh(ctx context.Context, env *runEnv) (*daemon, time.Duration, error) {
	dir, err := env.subdir("mctd-")
	if err != nil {
		return nil, 0, err
	}
	return startDaemon(ctx, env.opt.bin, dir)
}

// bootSamples boots and stops n fresh mctd processes and returns each
// launch-until-/healthz-200 time.
func bootSamples(ctx context.Context, env *runEnv, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		d, took, err := bootFresh(ctx, env)
		if err != nil {
			return nil, err
		}
		if _, err := d.stop(); err != nil {
			return nil, err
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

func startSpecSession(ctx context.Context, env *runEnv, accesses uint64) (*specSession, error) {
	d, _, err := bootFresh(ctx, env)
	if err != nil {
		return nil, err
	}
	s := &specSession{env: env, d: d, hc: newHTTPClient(clientCount()), accesses: accesses}
	for i := 0; i < clientCount(); i++ {
		s.clients = append(s.clients, &specClient{
			id: i, seed: derive(env.opt.seed, "spec-client", uint64(i)), accesses: accesses, sent: map[byte]int{},
		})
	}
	return s, nil
}

func (s *specSession) setup(ctx context.Context, n int) ([]float64, error) {
	return bootSamples(ctx, s.env, n)
}

func (s *specSession) traffic(ctx context.Context, secs float64, tr *tracer) (*phase, error) {
	return closedLoop(ctx, len(s.clients), secs, func(i int, deadline time.Time, p *phase) {
		s.runClient(ctx, s.clients[i], deadline, p, tr)
	})
}

// closedLoop runs one goroutine per client until each has passed the
// deadline, and merges what they measured.
func closedLoop(ctx context.Context, clients int, secs float64, run func(i int, deadline time.Time, p *phase)) (*phase, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	phases := make([]*phase, clients)
	var wg sync.WaitGroup
	for i := range phases {
		phases[i] = newPhase()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i, deadline, phases[i])
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ph := newPhase()
	for _, p := range phases {
		ph.merge(p)
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// runClient sends whole blocks of specPattern until the deadline has
// passed (at least one block), checking each response. A block whose
// requests all succeed adds the sum of their latencies to the "block"
// samples.
func (s *specSession) runClient(ctx context.Context, c *specClient, deadline time.Time, p *phase, tr *tracer) {
	chk := s.env.chk
	var buf bytes.Buffer
	for block := 0; block == 0 || time.Now().Before(deadline); block++ {
		blockMS, whole := 0.0, true
		for i := 0; i < len(specPattern); i++ {
			if ctx.Err() != nil {
				return
			}
			kind := specPattern[i]
			req, target := c.next(kind)
			p.attempted++
			if req == nil {
				p.failed++
				whole = false
				chk.expect("requests succeed", false, "client %d: no completed classify spec to replay", c.id)
				continue
			}
			status, lat, err := send(ctx, s.hc, s.d.base, req, &buf, tr, fmt.Sprintf("c%d-%d", c.id, c.n), 0)
			body := buf.Bytes()
			if !chk.expect("requests succeed", err == nil && status == http.StatusOK, "%s", describeFailure(req, status, err, body)) {
				p.failed++
				whole = false
				continue
			}
			switch kind {
			case 'c':
				if _, ok := checkClassify(chk, body, countLines(body), s.accesses); !ok && hasErrorRecord(body) {
					p.failed++
					whole = false
					continue
				}
				c.colds = append(c.colds, coldSpec{body: req.body, hash: maphash.Bytes(bodySeed, body), size: len(body)})
			case 'm':
				if _, ok := checkMRC(chk, body, len(mrcLadderKB), s.accesses); !ok && hasErrorRecord(body) {
					p.failed++
					whole = false
					continue
				}
			case 'r':
				want := c.colds[target]
				chk.expect("replay body is byte-identical to its cold body",
					len(body) == want.size && maphash.Bytes(bodySeed, body) == want.hash,
					"replay of %s: %d bytes, cold body had %d", want.body, len(body), want.size)
			}
			c.sent[kind]++
			p.bytes += int64(len(req.body))
			p.lat[req.kind] = append(p.lat[req.kind], float64(lat)/1e6)
			blockMS += float64(lat) / 1e6
		}
		if whole {
			p.lat["block"] = append(p.lat["block"], blockMS)
		}
	}
}

// hasErrorRecord reports whether a streamed response ends in an error
// record instead of its summary.
func hasErrorRecord(body []byte) bool {
	return bytes.Contains(lastLine(body), []byte(`"error"`))
}

// counters scrapes mctd's /metrics and checks the memo-cache counters
// against the requests sent: every replay a hit, every cold request a
// miss.
func (s *specSession) counters(ctx context.Context) (serviceCounters, error) {
	m, err := scrapeProm(ctx, s.hc, s.d.base)
	if err != nil {
		return serviceCounters{}, err
	}
	var cold, replay int
	for _, c := range s.clients {
		cold += c.sent['c'] + c.sent['m']
		replay += c.sent['r']
	}
	hits, misses := m["mct_cache_hits_total"], m["mct_cache_misses_total"]
	chk := s.env.chk
	chk.expect("memo hits == replays sent, memo misses == cold requests sent",
		hits == float64(replay) && misses == float64(cold),
		"hits %v misses %v, sent %d replays and %d cold", hits, misses, replay, cold)
	return serviceCounters{
		ok:            true,
		admitWaitMS:   1000 * m["mct_admission_wait_seconds_sum"] / m["mct_admission_wait_seconds_count"],
		batchSizeMean: m["mct_classify_batch_size_sum"] / m["mct_classify_batch_size_count"],
		memoHits:      hits,
		memoMisses:    misses,
	}, nil
}

func (s *specSession) stop() (float64, error) {
	s.hc.CloseIdleConnections()
	return s.d.stop()
}
