package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// This file is the service side of the cluster subsystem: cell routing
// (memoCell), the forwarding client path with the straggler-steal
// hedge (remoteCell), and the two internal peer endpoints — POST
// /v1/cluster/cell (execute one cell here) and GET /v1/cache/{key}
// (serve a finished cell from the memo cache without computing).
//
// The invariant that keeps forwarding loop-free: only memoCell ever
// consults the ring, and the cell handler never calls memoCell — a
// forwarded cell is always computed locally by its receiver, so the
// forwarding depth is one by construction even when two nodes briefly
// disagree about ring membership.

// reqMeta is the caller context a request carries into its fan-out:
// the job/trace ID, the idempotency key, and the brownout priority.
// Forwarded cells propagate all three across the wire so the remote
// node's idempotency store and shed ladder behave exactly as this
// node's would have.
type reqMeta struct {
	jobID    string
	idemKey  string
	priority string
}

type reqMetaCtxKey struct{}

func withReqMeta(ctx context.Context, m reqMeta) context.Context {
	return context.WithValue(ctx, reqMetaCtxKey{}, m)
}

func metaFrom(ctx context.Context) reqMeta {
	m, _ := ctx.Value(reqMetaCtxKey{}).(reqMeta)
	return m
}

// cellIdemKey picks the idempotency key a forwarded cell carries. A
// whole-request forward (spec-path classify or mrc: the request IS one
// cell) propagates the caller's key unchanged, so the remote store
// dedupes the caller's retries exactly as the first hop would have.
// Sweep cells use a content-derived key instead — the cell is a pure
// function of (slug, payload), so every node forwarding the same cell
// coalesces onto one remote computation regardless of which job asked.
func cellIdemKey(slug, key string, m reqMeta) string {
	if (slug == classifySlug || slug == mrcSlug) && m.idemKey != "" {
		return m.idemKey
	}
	return "cell-" + key[:32]
}

// computeWorkers is this node's local compute capacity: Config.Workers
// or GOMAXPROCS.
func (s *Service) computeWorkers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// gate bounds concurrent local cell computation to computeWorkers when
// the node is clustered. Without it, a clustered sweep's widened
// fan-out (sized for network-bound forwards) would also widen local
// compute; with it, at most computeWorkers cells compute here at once
// while any number of forwards stay in flight. Unclustered, gate is
// the identity — the single-node path is untouched.
func (s *Service) gate(ctx context.Context, compute func() ([]byte, error)) func() ([]byte, error) {
	if s.compSem == nil {
		return compute
	}
	return func() ([]byte, error) {
		select {
		case s.compSem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-s.compSem }()
		return compute()
	}
}

// cellFlight is one in-flight resolution of a cell on this node;
// concurrent callers for the same key share it instead of duplicating
// the work (runner.MemoBytes alone has no in-flight dedupe — two
// concurrent misses both compute).
type cellFlight struct {
	done chan struct{}
	raw  []byte
	hit  bool
	err  error
}

// singleflightCell coalesces concurrent same-cell work on this node:
// the first caller leads (runs fn), the rest wait and share its
// result. A waiter whose leader failed claims leadership and retries
// rather than inheriting the failure — the leader may have lost to a
// transient fault the waiter would not hit. Together with the
// origin-side forward singleflight in cluster.ExecCell, this is what
// makes "every cell computes exactly once fleet-wide" hold even when
// the same cell is demanded concurrently on several nodes: each node
// resolves it at most once, and all but the owner resolve it by
// forwarding or from cache.
func (s *Service) singleflightCell(ctx context.Context, key string, fn func() ([]byte, bool, error)) ([]byte, bool, error) {
	for {
		s.flightMu.Lock()
		if f, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				return f.raw, f.hit, nil
			}
			continue
		}
		f := &cellFlight{done: make(chan struct{})}
		if s.flights == nil {
			s.flights = map[string]*cellFlight{}
		}
		s.flights[key] = f
		s.flightMu.Unlock()
		f.raw, f.hit, f.err = fn()
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
		return f.raw, f.hit, f.err
	}
}

// memoCell is the single path every memoizable cell (classify spec,
// sweep cell) goes through: local cache, then the ring. A remote-owned
// cell is forwarded to its owner; on any remote failure the cell falls
// back to local compute — health degradation never fails a job, it
// only moves work. Unclustered, this is exactly runner.MemoBytes.
func (s *Service) memoCell(ctx context.Context, slug string, payload any, compute func() ([]byte, error)) ([]byte, bool, error) {
	if !s.cluster.Enabled() {
		return runner.MemoBytes(s.cache, slug, payload, compute)
	}
	key, err := runner.Key(slug, payload)
	if err != nil {
		return nil, false, err
	}
	return s.singleflightCell(ctx, slug+"\x00"+key, func() ([]byte, bool, error) {
		if raw, ok := s.cache.LoadRaw(slug, key); ok {
			return raw, true, nil
		}
		if owner, local := s.cluster.Owner(key); !local {
			if raw, hit, rerr := s.remoteCell(ctx, owner, slug, payload, key, compute); rerr == nil {
				return raw, hit, nil
			}
			// Remote owner unreachable after retries: compute locally below.
		}
		return runner.MemoBytes(s.cache, slug, payload, s.gate(ctx, compute))
	})
}

// cellResult is one resolution of a remote cell, by whichever path won.
type cellResult struct {
	raw    []byte
	hit    bool
	err    error
	stolen bool // resolved by local compute, already in the local cache
}

// remoteCell forwards one cell to owner, racing a steal pass against a
// straggling forward: after StealAfter the cell is pulled from the
// owner's cache (it may have finished but the response got lost) and,
// failing that, computed locally. First result wins. Successful remote
// results are written through to the local cache (cross-node fill), so
// the next lookup — this job's retry, another job, paperbench on the
// same cache dir — replays as a local hit.
func (s *Service) remoteCell(ctx context.Context, owner, slug string, payload any, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	enc, err := json.Marshal(payload)
	if err != nil {
		return nil, false, fmt.Errorf("service: encoding cell payload: %w", err)
	}
	m := metaFrom(ctx)
	creq := cluster.CellRequest{Slug: slug, Payload: enc, Key: key}
	fm := cluster.ForwardMeta{TraceID: m.jobID, Priority: m.priority, IdemKey: cellIdemKey(slug, key, m)}

	_, sp := obs.Start(ctx, "cluster.forward")
	sp.Str("owner", owner)
	sp.Str("slug", slug)
	defer sp.End()

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	primary := make(chan cellResult, 1)
	go func() {
		raw, hit, ferr := s.cluster.ExecCell(fctx, owner, creq, fm)
		primary <- cellResult{raw: raw, hit: hit, err: ferr}
	}()

	finish := func(r cellResult) ([]byte, bool, error) {
		if r.err != nil {
			sp.Err(r.err)
			return nil, false, r.err
		}
		if !r.stolen {
			if serr := s.cache.StoreRaw(slug, key, r.raw); serr == nil {
				s.cluster.NoteFill()
			}
		}
		sp.Bool("hit", r.hit)
		return r.raw, r.hit, nil
	}

	var stealC <-chan time.Time
	if d := s.cluster.StealAfterDelay(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		stealC = t.C
	}

	select {
	case r := <-primary:
		return finish(r)
	case <-ctx.Done():
		return nil, false, ctx.Err()
	case <-stealC:
	}

	// Straggler: steal the cell. Pull first (cheap, and the owner may
	// have finished the work even if the forward's response is stuck),
	// then local compute through runner.MemoBytes (which stores the
	// result, so a late-arriving primary changes nothing).
	s.cluster.NoteSteal()
	sp.Bool("steal", true)
	second := make(chan cellResult, 1)
	go func() {
		pullTimeout := s.cluster.StealAfterDelay()
		if pullTimeout > time.Second {
			pullTimeout = time.Second
		}
		pctx, pcancel := context.WithTimeout(fctx, pullTimeout)
		raw, ok, _ := s.cluster.PullCache(pctx, owner, slug, key)
		pcancel()
		if ok {
			second <- cellResult{raw: raw, hit: true}
			return
		}
		raw2, hit, cerr := runner.MemoBytes(s.cache, slug, payload, s.gate(fctx, compute))
		second <- cellResult{raw: raw2, hit: hit, err: cerr, stolen: true}
	}()
	select {
	case r := <-primary:
		if r.err == nil {
			return finish(r)
		}
		// Forward failed after the steal launched: the steal is now the
		// only path; wait it out.
		select {
		case r2 := <-second:
			return finish(r2)
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	case r := <-second:
		if r.err == nil {
			return finish(r)
		}
		// Steal failed (local compute error is authoritative only if the
		// forward also fails); give the primary its chance.
		select {
		case r2 := <-primary:
			if r2.err == nil {
				return finish(r2)
			}
			return finish(r) // surface the local compute error
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// cellOut is the owner-side result of one forwarded cell.
type cellOut struct {
	raw []byte
	hit bool
}

// execCellLocal validates and executes one forwarded cell on this node,
// through the same supervision, task labels, memoization, and compute
// gate a locally-originated cell gets — fault injection, slow-task
// logging, and retry policy treat a cell identically wherever it runs.
// Never consults the ring (see the loop-freedom invariant above).
func (s *Service) execCellLocal(ctx context.Context, creq cluster.CellRequest) ([]byte, bool, error) {
	var (
		label   string
		payload any
		compute func(tctx context.Context) ([]byte, error)
	)
	switch creq.Slug {
	case classifySlug:
		var spec ClassifySpec
		if err := strictUnmarshal(creq.Payload, &spec); err != nil {
			return nil, false, fmt.Errorf("%w: cell payload: %v", ErrBadRequest, err)
		}
		if err := spec.normalize(false, s.cfg.MaxSpecAccesses); err != nil {
			return nil, false, err
		}
		label = "classify/" + spec.Workload
		payload = spec
		compute = func(tctx context.Context) ([]byte, error) { return s.classifyRaw(tctx, spec) }
	case mrcSlug:
		var spec MRCSpec
		if err := strictUnmarshal(creq.Payload, &spec); err != nil {
			return nil, false, fmt.Errorf("%w: cell payload: %v", ErrBadRequest, err)
		}
		if err := spec.normalize(false, s.cfg.MaxSpecAccesses, s.cfg.Tenant.MaxSampledSet); err != nil {
			return nil, false, err
		}
		label = "mrc/" + spec.Workload
		payload = spec
		compute = func(tctx context.Context) ([]byte, error) { return s.mrcRaw(tctx, spec) }
	default:
		arts, err := experiments.Select([]string{creq.Slug})
		if err != nil || len(arts) != 1 || arts[0].Slug != creq.Slug {
			return nil, false, fmt.Errorf("%w: unknown cell slug %q", ErrBadRequest, creq.Slug)
		}
		var p experiments.Params
		if err := strictUnmarshal(creq.Payload, &p); err != nil {
			return nil, false, fmt.Errorf("%w: cell payload: %v", ErrBadRequest, err)
		}
		slug := creq.Slug
		label = "sweep/" + slug
		payload = p
		compute = func(tctx context.Context) ([]byte, error) { return s.experimentRaw(tctx, slug, p) }
	}

	jobCtx := runner.WithOptions(ctx, s.supervision()...)
	slug := creq.Slug
	tasks := []runner.Task[cellOut]{runner.NewTask(label, func(tctx context.Context) (cellOut, error) {
		// The same flight key memoCell uses, so a forwarded execution
		// coalesces with concurrent local demand for the cell instead of
		// computing it a second time.
		key, kerr := runner.Key(slug, payload)
		if kerr != nil {
			return cellOut{}, kerr
		}
		raw, hit, err := s.singleflightCell(tctx, slug+"\x00"+key, func() ([]byte, bool, error) {
			return runner.MemoBytes(s.cache, slug, payload, s.gate(tctx, func() ([]byte, error) {
				if cerr := tctx.Err(); cerr != nil {
					return nil, cerr
				}
				return compute(tctx)
			}))
		})
		return cellOut{raw: raw, hit: hit}, err
	})}
	out, err := runner.Map(jobCtx, tasks)
	if err != nil {
		return nil, false, err
	}
	return out[0].raw, out[0].hit, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, the same
// strictness the public handlers apply.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// classifyRaw computes one spec-path classification and returns its
// encoded artifact — the exact bytes the memo cache stores, so the local
// path, the forwarded path, and the cache agree byte for byte.
func (s *Service) classifyRaw(ctx context.Context, spec ClassifySpec) ([]byte, error) {
	var body []byte
	st, sum, err := runClassify(ctx, spec, trace.NewStreamBatcher(specStream(spec)), func(b []byte) error {
		body = append(body, b...)
		return nil
	})
	if err == nil {
		body, err = appendJSONLine(body, sum)
	}
	if err != nil {
		return nil, err
	}
	st.Emitted++
	s.records.Add(st.Records)
	return encodeArtifact(st, body)
}

// experimentRaw computes one experiment cell and returns its marshaled
// result.
func (s *Service) experimentRaw(ctx context.Context, slug string, p experiments.Params) ([]byte, error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	v, err := experiments.RunArtifact(slug, p)
	if err != nil {
		return nil, err
	}
	enc, merr := json.Marshal(v)
	if merr != nil {
		return nil, fmt.Errorf("service: encoding %s result: %w", slug, merr)
	}
	s.records.Add(p.Instructions)
	return enc, nil
}

// handleClusterCell serves POST /v1/cluster/cell: execute one cell on
// this node and return its raw result. Internal (peer-to-peer) but
// held to the public endpoints' discipline: brownout-gated (the
// forwarded X-Mct-Priority decides survival at the low-priority shed
// level), admission-bounded per origin node, idempotency-wrapped by
// the route registration. The X-Mct-Trace-Id header threads the
// origin's job trace through this node's spans.
func (s *Service) handleClusterCell(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r, false) {
		return
	}
	origin := clientID(r)
	ctx := r.Context()
	if tid := r.Header.Get(cluster.TraceIDHeader); tid != "" {
		ctx = obs.Inject(ctx, s.ring, tid)
	}
	ctx, root := obs.Start(ctx, "cluster.cell")
	root.Str("origin", origin)
	defer root.End()

	release, err := s.admit(ctx, origin)
	if err != nil {
		root.Err(err)
		writeErr(w, err)
		return
	}
	defer release()

	var creq cluster.CellRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&creq); err != nil {
		writeErr(w, fmt.Errorf("%w: decoding cell: %v", ErrBadRequest, err))
		return
	}
	root.Str("slug", creq.Slug)
	raw, hit, err := s.execCellLocal(ctx, creq)
	if err != nil {
		root.Err(err)
		writeErr(w, err)
		return
	}
	root.Bool("hit", hit)
	if self := s.cluster.Self(); self != "" {
		w.Header().Set(cluster.NodeHeader, self)
	}
	disposition := "miss"
	if hit {
		disposition = "hit"
	}
	w.Header().Set(cluster.CacheHeader, disposition)
	// Cell bytes are the memo payload verbatim: JSON for a sweep cell,
	// an encoded artifact for classify and MRC.
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(raw)
}

// handleCacheGet serves GET /v1/cache/{key}?slug=: a peer pulling a
// finished cell instead of recomputing it. A pure cache read — no
// admission, no shed, no compute ever triggered — so it stays cheap
// and available even when this node is saturated, exactly when peers
// most want to pull rather than forward.
func (s *Service) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	slug := r.URL.Query().Get("slug")
	if slug == "" || !validMemoKey(key) {
		writeErr(w, fmt.Errorf("%w: cache get needs a hex key path and a slug query", ErrBadRequest))
		return
	}
	raw, ok := s.cache.LoadRaw(slug, key)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf("no cached result for %s/%s", slug, key[:16]), Status: http.StatusNotFound})
		return
	}
	if self := s.cluster.Self(); self != "" {
		w.Header().Set(cluster.NodeHeader, self)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(raw)
}

// validMemoKey checks the shape runner.Key produces: 64 hex chars.
func validMemoKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
