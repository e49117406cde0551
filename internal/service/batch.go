package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// batchResult is what a batch delivers back to one waiting request.
type batchResult struct {
	art artifact
	hit bool // memoization-cache hit
	err error
}

// batchItem is one classify request waiting in the batcher. done is
// buffered (capacity 1) so delivery never blocks on a caller that
// abandoned the request.
type batchItem struct {
	ctx  context.Context
	spec ClassifySpec
	done chan batchResult
}

// batcher coalesces admitted classify requests into groups of up to size
// (or whatever arrives within wait of the first), then hands each group
// to run as one unit — the service's "admission → batch → supervise"
// stage. Batching amortizes the worker-pool fan-out across concurrent
// requests instead of spawning one pool invocation per request.
type batcher struct {
	in   chan *batchItem
	size int
	wait time.Duration
	run  func([]*batchItem)

	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
}

func newBatcher(size int, wait time.Duration, run func([]*batchItem)) *batcher {
	if size < 1 {
		size = 1
	}
	if wait <= 0 {
		wait = time.Millisecond
	}
	b := &batcher{in: make(chan *batchItem), size: size, wait: wait, run: run, quit: make(chan struct{})}
	b.wg.Add(1)
	go b.loop()
	return b
}

// submit enqueues one request and returns its delivery channel. It fails
// with ErrDraining once the batcher has stopped, and with ctx's error if
// the caller gives up first.
func (b *batcher) submit(ctx context.Context, spec ClassifySpec) (<-chan batchResult, error) {
	it := &batchItem{ctx: ctx, spec: spec, done: make(chan batchResult, 1)}
	select {
	case b.in <- it:
		return it.done, nil
	case <-b.quit:
		return nil, ErrDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// stop shuts the intake and waits for in-flight batches to finish. Call
// only after admission has drained: with no admitted requests left there
// are no submitters to strand. Idempotent, so Drain may run more than
// once (a signal-driven drain racing a deferred one).
func (b *batcher) stop() {
	b.quitOnce.Do(func() { close(b.quit) })
	b.wg.Wait()
}

// loop collects batches: the first item opens a batch, then up to
// size-1 more may join within wait. Each full batch executes on its own
// goroutine so collection never stalls behind execution.
func (b *batcher) loop() {
	defer b.wg.Done()
	for {
		var first *batchItem
		select {
		case first = <-b.in:
		case <-b.quit:
			return
		}
		batch := []*batchItem{first}
		timer := time.NewTimer(b.wait)
	collect:
		for len(batch) < b.size {
			select {
			case it := <-b.in:
				batch = append(batch, it)
			case <-timer.C:
				break collect
			case <-b.quit:
				break collect
			}
		}
		timer.Stop()
		b.wg.Add(1)
		go func(items []*batchItem) {
			defer b.wg.Done()
			b.run(items)
		}(batch)
	}
}

// runBatch executes one batch through the runner's supervised worker
// pool and delivers each item's result on its channel. The pool context
// carries the service's job-scoped supervision options (WithOptions)
// and is detached from any single request: one canceled request must
// not take its batchmates down. Per-request cancellation instead
// reaches into each task through the item's own context.
func (s *Service) runBatch(items []*batchItem) {
	s.hBatch.Observe(float64(len(items)))
	ctx := runner.WithOptions(context.Background(), s.supervision()...)
	// The batch runs detached from any one request, so its spans live
	// under the shared "batch" trace; per-item cache-lookup spans ride
	// each item's own context and land under that item's job trace.
	ctx, sp := obs.Start(obs.Inject(ctx, s.ring, "batch"), "service.batch")
	sp.Int("size", int64(len(items)))
	defer sp.End()
	tasks := make([]runner.Task[batchResult], len(items))
	for i, it := range items {
		it := it
		tasks[i] = runner.NewTask("classify/"+it.spec.Workload, func(context.Context) (batchResult, error) {
			art, hit, err := s.classifyMemo(it.ctx, it.spec)
			return batchResult{art: art, hit: hit}, err
		})
	}
	results, err := runner.Map(ctx, tasks, runner.PartialResults())
	failed := map[int]error{}
	var me *runner.MultiError
	if errors.As(err, &me) {
		for _, f := range me.Failures {
			failed[f.Index] = f
		}
	} else if err != nil {
		for i := range items {
			failed[i] = err
		}
	}
	for i, it := range items {
		var res batchResult
		if i < len(results) {
			res = results[i]
		}
		if ferr, ok := failed[i]; ok {
			res = batchResult{err: ferr}
		}
		it.done <- res // buffered: never blocks
	}
}

// classifyMemo computes (or replays) one spec-path classification
// through the cell path: local memo cache, then — clustered — the hash
// ring (a remote-owned spec forwards to its owner; see cluster.go). The
// encoded artifact is the cached value; see artifact for why, and
// classifyRaw (cluster.go) for the compute itself.
func (s *Service) classifyMemo(ctx context.Context, spec ClassifySpec) (artifact, bool, error) {
	_, sp := obs.Start(ctx, "cache.lookup")
	sp.Str("workload", spec.Workload)
	raw, hit, err := s.memoCell(ctx, classifySlug, spec, func() ([]byte, error) {
		return s.classifyRaw(ctx, spec)
	})
	sp.Bool("hit", hit)
	sp.Err(err)
	sp.End()
	if err != nil {
		return artifact{}, hit, err
	}
	art, err := decodeArtifact(raw)
	return art, hit, err
}

// classifySlug keys spec-path classifications in the memo cache.
const classifySlug = "svc-classify"
