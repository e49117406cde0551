package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// workloadDef is one traffic mix the benchmark can run.
type workloadDef struct {
	name string
	why  string
	// block is the latency samples whose median is block_p50_ms and
	// whose traced-minus-untraced median is the tracing overhead: one
	// client's whole pattern of requests, or one paperbench run.
	block string
	// start sets up the program under test and returns a session over it.
	start func(ctx context.Context, env *runEnv) (session, error)
}

// session is a set-up program under test.
type session interface {
	// setup launches the program n more times, each from scratch, and
	// returns each launch-until-ready time in seconds.
	setup(ctx context.Context, n int) ([]float64, error)
	// traffic runs the closed-loop load for at least secs seconds,
	// checking every response; tr, when non-nil, records each request.
	traffic(ctx context.Context, secs float64, tr *tracer) (*phase, error)
	// counters reads the service-layer counters the program exposes
	// (ok false when it has none) and checks them against what was sent.
	counters(ctx context.Context) (serviceCounters, error)
	// stop ends every process the session started, waits for them, and
	// returns the largest resident set any of them reached, in MB.
	stop() (peakRSSMB float64, err error)
}

// phase is what one stretch of traffic measured.
type phase struct {
	attempted, failed int
	elapsed           time.Duration
	lat               map[string][]float64 // request kind -> latencies, ms
	bytes             int64                // request bytes sent by completed requests
	figs              map[string][]float64 // paperbench figure -> seconds
}

func newPhase() *phase {
	return &phase{lat: map[string][]float64{}, figs: map[string][]float64{}}
}

// completed is how many attempted requests succeeded.
func (p *phase) completed() int { return p.attempted - p.failed }

// merge folds q into p (q's elapsed time runs alongside p's).
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.bytes += q.bytes
	p.elapsed = max(p.elapsed, q.elapsed)
	for k, v := range q.lat {
		p.lat[k] = append(p.lat[k], v...)
	}
	for k, v := range q.figs {
		p.figs[k] = append(p.figs[k], v...)
	}
}

// serviceCounters are mctd's admission, batching and memo-cache counters
// as its /metrics endpoint exposes them.
type serviceCounters struct {
	ok            bool
	admitWaitMS   float64 // mean time a request spent in admission
	batchSizeMean float64 // mean classify requests per batch
	memoHits      float64
	memoMisses    float64
}

var workloads = []*workloadDef{
	{
		name:  "spec-mix",
		why:   "cold classify, cold MRC and a memo-hit replay per block, JSON specs over swim, gcc, tomcatv: generation, cache+MCT, oracle, MRC ladder, NDJSON, memo writes and reads, admission, batching",
		block: "block",
		start: startSpecMix,
	},
	{
		name:  "trace-upload",
		why:   "20 MB v2 trace images POSTed to classify and MRC: untrusted decode and streamed NDJSON, bypassing workload generation and the memo cache",
		block: "block",
		start: startUpload,
	},
	{
		name:  "paperbench-quick",
		why:   "the reproduction users run (fig2, fig3, fig6 at -quick): CPU timing model and workload generation, no HTTP, trace decode or MRC",
		block: "paperbench",
		start: startPaperbench,
	},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// scale sizes every generated input.
type scale struct {
	specAccesses  uint64 // memory accesses per classify and MRC spec
	burstAccesses uint64 // per spec in the layer suite's counter burst
	imageInstrs   uint64 // instructions per uploaded trace image
	layerAccesses uint64 // memory references per layer-suite input
	simInstrs     uint64 // instructions per timing-model run
	reps          int    // repetitions of each in-process layer pass
	pairs         int    // request pairs timed for render and transport
	boots         int    // launches per set-up measurement, half before the traffic and half after
	pbArgs        []string
}

var fullScale = scale{
	specAccesses:  100_000,
	burstAccesses: 50_000,
	imageInstrs:   850_000, // 24-byte v2 records: about 20 MB
	layerAccesses: 200_000,
	simInstrs:     200_000,
	reps:          3,
	pairs:         11,
	boots:         20,
}

var smokeScale = scale{
	specAccesses:  20_000,
	burstAccesses: 10_000,
	imageInstrs:   60_000,
	layerAccesses: 20_000,
	simInstrs:     20_000,
	reps:          1,
	pairs:         2,
	boots:         3,
	pbArgs:        []string{"-instructions", "20000", "-accesses", "20000"},
}

// specBenches are the synthetic workloads the spec and upload traffic
// cycle through, in a fixed interleave.
var specBenches = []string{"swim", "gcc", "tomcatv"}

// derive returns the n-th value of the pseudo-random stream named label
// under seed. Every input the benchmark generates comes from here, so
// the same seed always gives the same inputs.
func derive(seed uint64, label string, n uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return splitmix64(seed ^ splitmix64(h.Sum64()^splitmix64(n)))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// checks collects the output checks of a run. Safe for concurrent use.
type checks struct {
	mu    sync.Mutex
	order []*checkResult
	by    map[string]*checkResult
}

// checkResult counts one named check's outcomes and keeps its first
// failure.
type checkResult struct {
	Name   string `json:"name"`
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
	First  string `json:"first_failure,omitempty"`
}

func newChecks() *checks { return &checks{by: map[string]*checkResult{}} }

// expect records one outcome of the named check.
func (c *checks) expect(name string, ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.by[name]
	if r == nil {
		r = &checkResult{Name: name}
		c.by[name] = r
		c.order = append(c.order, r)
	}
	if ok {
		r.Passed++
		return true
	}
	r.Failed++
	if r.First == "" {
		r.First = fmt.Sprintf(format, args...)
	}
	return false
}

// ok reports whether every check passed.
func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.order {
		if r.Failed > 0 {
			return false
		}
	}
	return true
}

func (c *checks) list() []checkResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]checkResult, len(c.order))
	for i, r := range c.order {
		out[i] = *r
	}
	return out
}
