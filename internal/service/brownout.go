package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrOverloaded marks a request shed by the brownout controller.
// statusFor maps it to 503; responses carry Retry-After.
var ErrOverloaded = errors.New("service: overloaded, shedding load")

// Brownout levels, in shedding order. Each level sheds everything the
// previous one does plus one more class; /healthz and /metrics are
// never shed at any level (an overloaded instance must stay observable,
// or nobody can tell it is shedding on purpose).
const (
	// brownNormal: everything served.
	brownNormal int32 = iota
	// brownShedStream: streaming endpoints shed (trace-upload classify,
	// GET /v1/trace) — the largest per-request cost, dropped first.
	brownShedStream
	// brownShedLowPri: plus requests not marked X-Mct-Priority: high.
	brownShedLowPri
	// brownBreakerOpen: circuit open — every API request shed.
	brownBreakerOpen
)

func brownoutLevelName(l int32) string {
	switch l {
	case brownNormal:
		return "normal"
	case brownShedStream:
		return "shed-streaming"
	case brownShedLowPri:
		return "shed-low-priority"
	default:
		return "breaker-open"
	}
}

// PriorityHeader lets clients mark requests that survive brownout level
// 2 ("high"); anything else is low priority.
const PriorityHeader = "X-Mct-Priority"

// BrownoutConfig shapes the overload ladder.
type BrownoutConfig struct {
	// Enabled arms the controller; off, no request is ever shed.
	Enabled bool
	// Interval is the evaluation tick. Default 250ms.
	Interval time.Duration
	// AdmitWaitP99 is the overload threshold on the windowed p99 of the
	// admission-wait histogram (time requests spend blocked at the front
	// door). Default 50ms.
	AdmitWaitP99 time.Duration
	// WaiterFrac is the fraction of the waiting room that, when
	// occupied, also signals overload. Default 0.5.
	WaiterFrac float64
	// TripTicks consecutive overloaded ticks escalate one level;
	// ClearTicks consecutive healthy ticks de-escalate one. The
	// asymmetry is the hysteresis: trip fast, clear slow. Defaults 2/4.
	TripTicks, ClearTicks int
	// RetryAfter is the hint sent with shed responses. Default 1s.
	RetryAfter time.Duration
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.AdmitWaitP99 <= 0 {
		c.AdmitWaitP99 = 50 * time.Millisecond
	}
	if c.WaiterFrac <= 0 {
		c.WaiterFrac = 0.5
	}
	if c.TripTicks <= 0 {
		c.TripTicks = 2
	}
	if c.ClearTicks <= 0 {
		c.ClearTicks = 4
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// brownout is the degradation-ladder controller: a periodic tick reads
// windowed load signals (admission-wait histogram deltas, waiting-room
// occupancy) and walks the level up or down with hysteresis. The
// request path only ever reads one atomic.
type brownout struct {
	cfg    BrownoutConfig
	svc    *Service
	level  atomic.Int32
	bounds []float64 // admission histogram bucket bounds

	mu        sync.Mutex
	prevSnap  []uint64
	overStrk  int
	underStrk int

	transitions atomic.Uint64
	sheds       atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newBrownout(s *Service, cfg BrownoutConfig) *brownout {
	return &brownout{cfg: cfg.withDefaults(), svc: s, bounds: obs.LatencyBuckets, stop: make(chan struct{})}
}

// run starts the evaluation ticker (only when enabled).
func (b *brownout) run() {
	if !b.cfg.Enabled {
		return
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(b.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				b.observe(b.overloaded())
			case <-b.stop:
				return
			}
		}
	}()
}

func (b *brownout) close() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}

// overloaded reads this tick's load signals: the windowed p99 of
// admission wait (bucket-count deltas since the previous tick — the
// cumulative histogram can never "recover", the window can) and the
// waiting-room occupancy, which is instantaneous.
func (b *brownout) overloaded() bool {
	snap := b.svc.hAdmit.Snapshot()
	b.mu.Lock()
	prev := b.prevSnap
	b.prevSnap = snap
	b.mu.Unlock()
	window := make([]uint64, len(snap))
	for i := range snap {
		window[i] = snap[i]
		if prev != nil && i < len(prev) {
			window[i] -= prev[i]
		}
	}
	if p99 := bucketQuantile(b.bounds, window, 0.99); p99 > b.cfg.AdmitWaitP99.Seconds() {
		return true
	}
	if b.svc.cfg.MaxWaiters > 0 &&
		float64(b.svc.adm.Waiters()) >= b.cfg.WaiterFrac*float64(b.svc.cfg.MaxWaiters) {
		return true
	}
	return false
}

// observe feeds one tick's verdict into the hysteresis ladder. Exposed
// separately from the ticker so tests drive it deterministically.
func (b *brownout) observe(over bool) {
	b.mu.Lock()
	if over {
		b.overStrk++
		b.underStrk = 0
	} else {
		b.underStrk++
		b.overStrk = 0
	}
	delta := int32(0)
	if b.overStrk >= b.cfg.TripTicks {
		b.overStrk = 0
		delta = 1
	} else if b.underStrk >= b.cfg.ClearTicks {
		b.underStrk = 0
		delta = -1
	}
	b.mu.Unlock()
	if delta == 0 {
		return
	}
	for {
		cur := b.level.Load()
		next := cur + delta
		if next < brownNormal {
			next = brownNormal
		}
		if next > brownBreakerOpen {
			next = brownBreakerOpen
		}
		if next == cur {
			return
		}
		if b.level.CompareAndSwap(cur, next) {
			b.transitions.Add(1)
			// The transition is a span in the trace ring: `mctd` operators
			// see level changes next to the requests they shed.
			_, sp := obs.Start(obs.Inject(context.Background(), b.svc.ring, "brownout"), "brownout.transition")
			sp.Str("from", brownoutLevelName(cur))
			sp.Str("to", brownoutLevelName(next))
			sp.End()
			if b.svc.logf != nil {
				b.svc.logf("service: brownout %s -> %s", brownoutLevelName(cur), brownoutLevelName(next))
			}
			return
		}
	}
}

// Level returns the current ladder position.
func (b *brownout) Level() int32 { return b.level.Load() }

// allow decides one request's fate. streaming marks the
// high-cost streaming class (upload classify, trace dumps).
func (b *brownout) allow(r *http.Request, streaming bool) error {
	if b == nil || !b.cfg.Enabled {
		return nil
	}
	l := b.level.Load()
	shed := false
	switch {
	case l >= brownBreakerOpen:
		shed = true
	case l >= brownShedLowPri:
		shed = streaming || r.Header.Get(PriorityHeader) != "high"
	case l >= brownShedStream:
		shed = streaming
	}
	if !shed {
		return nil
	}
	b.sheds.Add(1)
	return fmt.Errorf("%w (level %s)", ErrOverloaded, brownoutLevelName(l))
}

// shed enforces the brownout decision at a handler's front door:
// returns true after writing the 503 (with Retry-After) if the request
// was shed.
func (s *Service) shed(w http.ResponseWriter, r *http.Request, streaming bool) bool {
	err := s.brown.allow(r, streaming)
	if err == nil {
		return false
	}
	w.Header().Set("Retry-After", retryAfterValue(s.brown.cfg.RetryAfter))
	writeErr(w, err)
	return true
}

// bucketQuantile estimates a quantile from non-cumulative bucket counts
// over the given bounds (same interpolation as obs.Histogram.Quantile,
// but over a caller-supplied window instead of the cumulative counts).
func bucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			if i >= len(bounds) {
				return lower // +Inf bucket
			}
			upper := bounds[i]
			if c == 0 {
				return upper
			}
			frac := (rank - float64(prev)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + frac*(upper-lower)
		}
	}
	return bounds[len(bounds)-1]
}
