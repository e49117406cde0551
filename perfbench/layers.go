package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/amb"
	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// classifyGeometry is mctd's default classify cache: 32 KB, 2-way, 64 B
// lines, modulo indexing.
var classifyGeometry = cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 2}

// mrcLadderKB is mctd's default MRC size ladder.
var mrcLadderKB = []int{4, 8, 16, 32, 64, 128, 256}

// layerInput is one generated access stream the layer suite replays
// through every layer: a spec workload at a seed derived from the run's.
type layerInput struct {
	bench  *workload.Benchmark
	seed   uint64
	req    string
	addrs  []mem.Addr
	stores []bool
	hits   []bool
	image  []byte // the same instruction stream as a v2 trace image
	instrs uint64 // records in image
}

// layerSuite times calls into each layer's public functions, from the
// benchmark's own code, on inputs generated from the run's seed, with a
// span around each timed pass. cnt carries mctd's service counters when
// the workload already read them; otherwise a short spec-mix burst
// against a fresh mctd provides them. figs carries paperbench's figure
// times when the workload ran paperbench; otherwise one run provides
// them.
func layerSuite(ctx context.Context, env *runEnv, cnt serviceCounters, figs map[string][]float64) (map[string]float64, error) {
	tr, sc := env.tr, env.sc
	suite := tr.begin("layer-suite", "suite", 0)
	defer tr.finish(suite)
	out := map[string]float64{}

	inputs := make([]*layerInput, len(specBenches))
	for i, name := range specBenches {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload %q is not defined", name)
		}
		inputs[i] = &layerInput{bench: b, seed: derive(env.opt.seed, "layer", uint64(i)) | 1, req: "layer-" + name}
		inputs[i].build(sc.layerAccesses)
	}
	n := float64(sc.layerAccesses) * float64(len(inputs))

	// perRef times pass on every input and returns the summed medians
	// per memory reference, in ns.
	perRef := func(name string, pass func(in *layerInput)) float64 {
		var total time.Duration
		for _, in := range inputs {
			total += timed(tr, name, in.req, suite, sc.reps, func() { pass(in) })
		}
		return float64(total.Nanoseconds()) / n
	}

	out["workload.gen_ns_per_ref"] = perRef("workload.gen", func(in *layerInput) {
		sb := trace.NewStreamBatcher(trace.NewLimit(trace.NewMemOnly(in.bench.Stream(in.seed)), sc.layerAccesses))
		b := trace.NewBatch(trace.DefaultBatchSize)
		for sb.ReadBatch(b, trace.DefaultBatchSize) > 0 {
		}
	})
	var instrs float64
	for _, in := range inputs {
		instrs += float64(in.instrs)
	}
	out["workload.records_per_ref"] = instrs / n

	var decodeErr error
	decode := perRef("trace.decode", func(in *layerInput) {
		rd, err := trace.NewReaderContext(ctx, bytes.NewReader(in.image), trace.Limits{})
		if err != nil {
			decodeErr = err
			return
		}
		b := trace.NewBatch(trace.DefaultBatchSize)
		for rd.ReadBatch(b, trace.DefaultBatchSize) > 0 {
		}
		if err := rd.Err(); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("decoding a generated trace image: %w", decodeErr)
	}
	out["trace.decode_ns_per_record"] = decode * n / instrs

	out["core.access_ns_per_ref"] = perRef("core.access", func(in *layerInput) {
		cc := core.MustAttach(cache.MustNew(classifyGeometry), 0)
		classes := make([]core.Class, trace.DefaultBatchSize)
		chunks(len(in.addrs), func(lo, hi int) {
			cc.AccessBatch(in.addrs[lo:hi], in.stores[lo:hi], in.hits[lo:hi], classes[:hi-lo])
		})
	})
	out["classify.oracle_ns_per_ref"] = perRef("classify.oracle", func(in *layerInput) {
		o := classify.MustNewOracle(classifyGeometry)
		kinds := make([]classify.Kind, trace.DefaultBatchSize)
		chunks(len(in.addrs), func(lo, hi int) { o.ObserveBatch(in.addrs[lo:hi], in.hits[lo:hi], kinds[:hi-lo]) })
	})
	out["classify.ladder_ns_per_ref"] = perRef("classify.ladder", func(in *layerInput) {
		runs := make([]*classify.Run, len(mrcLadderKB))
		for i, kb := range mrcLadderKB {
			cfg := classifyGeometry
			cfg.Size = kb << 10
			runs[i], _ = classify.NewRun(cfg, 0)
		}
		chunks(len(in.addrs), func(lo, hi int) {
			for _, r := range runs {
				r.AccessBatch(in.addrs[lo:hi], in.stores[lo:hi])
			}
		})
	})
	var sampled float64
	out["mrc.observe_ns_per_ref"] = perRef("mrc.observe", func(in *layerInput) {
		p := mrc.New(mrc.Config{}) // the profiler defaults mctd's MRC requests use
		chunks(len(in.addrs), func(lo, hi int) { p.ObserveBatch(in.addrs[lo:hi]) })
		sampled += float64(p.Stats().Sampled)
	})
	out["mrc.sampled_frac"] = sampled / float64(sc.reps) / n
	out["classify.scalar_ns_per_ref"] = perRef("classify.scalar", func(in *layerInput) {
		r, _ := classify.NewRun(classifyGeometry, 0)
		for i, a := range in.addrs {
			r.Access(a, in.stores[i])
		}
	})

	simPerInstr := func(name string, sys func() assist.System) float64 {
		var total time.Duration
		for _, in := range inputs {
			total += timed(tr, name, in.req, suite, sc.reps, func() {
				r := sim.Run(in.bench, sys(), sim.Options{Instructions: sc.simInstrs, Seed: in.seed})
				env.chk.expect("timing model retires instructions", r.IPC() > 0, "%s: IPC %v", in.bench.Name, r.IPC())
			})
		}
		return float64(total.Nanoseconds()) / float64(sc.simInstrs) / float64(len(inputs))
	}
	out["sim.ns_per_instr"] = simPerInstr("sim.baseline", func() assist.System {
		return assist.MustNewBaseline(sim.L1Config(), 0)
	})
	out["sim.amb_ns_per_instr"] = simPerInstr("sim.amb", func() assist.System {
		return amb.MustNew(sim.L1Config(), 0, 8, amb.VictPref) // Figure 6's best 8-entry combination
	})

	if err := serviceLayers(ctx, env, inputs[0], suite, out); err != nil {
		return nil, err
	}

	if !cnt.ok {
		var err error
		if cnt, err = specBurst(ctx, env); err != nil {
			return nil, err
		}
	}
	out["service.admit_wait_ms"] = cnt.admitWaitMS
	out["service.batch_size_mean"] = cnt.batchSizeMean
	out["runner.memo_hit_ratio"] = cnt.memoHits / (cnt.memoHits + cnt.memoMisses)

	if len(figs) == 0 {
		pb := &pbSession{env: env, seed: derive(env.opt.seed, "paperbench", 0)%1_000_000_000 + 1, parent: suite}
		ph, err := pb.traffic(ctx, 0, tr)
		if err != nil {
			return nil, err
		}
		figs = ph.figs
	}
	for _, f := range pbFigures {
		out["paperbench."+f+"_s"] = median(figs[f])
	}
	return out, nil
}

// build generates the input's memory references (kept for the later
// layers) and the same instruction stream as a v2 trace image.
func (in *layerInput) build(accesses uint64) {
	var img bytes.Buffer
	w, _ := trace.NewWriterV2(&img, 0) // writes to a bytes.Buffer cannot fail
	src := trace.NewLimit(trace.NewMemOnly(trace.NewTee(in.bench.Stream(in.seed), func(i trace.Instr) {
		_ = w.Write(i)
	})), accesses)
	var ins trace.Instr
	for src.Next(&ins) {
		in.addrs = append(in.addrs, ins.Addr)
		in.stores = append(in.stores, ins.Op == trace.Store)
	}
	_ = w.Flush()
	in.image, in.instrs = img.Bytes(), w.Count()
	in.hits = make([]bool, len(in.addrs))
}

// chunks calls f over [0, n) in batch-sized pieces, the way mctd feeds
// its kernels.
func chunks(n int, f func(lo, hi int)) {
	for lo := 0; lo < n; lo += trace.DefaultBatchSize {
		f(lo, min(lo+trace.DefaultBatchSize, n))
	}
}

// timed runs f reps times, each under a span, and returns the median
// wall time.
func timed(tr *tracer, name, req string, parent, reps int, f func()) time.Duration {
	ds := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		id := tr.begin(name, req, parent)
		t0 := time.Now()
		f()
		ds = append(ds, float64(time.Since(t0)))
		tr.finish(id)
	}
	return time.Duration(median(ds))
}

// memoArtifact has the shape of mctd's memoized classify artifact: the
// rendered NDJSON body plus its work counts.
type memoArtifact struct {
	Body  []byte `json:"body"`
	Stats struct {
		Records uint64 `json:"records"`
		Emitted uint64 `json:"emitted"`
	} `json:"stats"`
	Summary bool `json:"summary"`
}

// serviceLayers times the service's handler in process (rendering, and
// over loopback for the transport cost) and the memo cache on the
// handler's own response, for one cold classify spec of the spec-mix
// shape.
func serviceLayers(ctx context.Context, env *runEnv, in *layerInput, parent int, out map[string]float64) error {
	tr, sc, chk := env.tr, env.sc, env.chk
	svc := service.New(service.Config{NoCache: true})
	defer func() { _ = svc.Drain(context.Background()) }()
	h := svc.Handler()
	spec := func(emit string) []byte {
		return []byte(fmt.Sprintf(`{"workload":%q,"accesses":%d,"seed":%d,"emit":%q}`,
			in.bench.Name, env.sc.specAccesses, in.seed, emit))
	}
	inProcess := func(emit string) (*sink, float64) {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(spec(emit)))
		req.Header.Set("Content-Type", "application/json")
		w := newSink()
		id := tr.begin("service.handler."+emit, in.req, parent)
		t0 := time.Now()
		h.ServeHTTP(w, req)
		took := time.Since(t0)
		tr.finish(id)
		chk.expect("in-process handler answers 200", w.status == http.StatusOK, "emit=%s: status %d: %.200q", emit, w.status, w.last)
		return w, float64(took) / 1e6
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loopback listener: %w", err)
	}
	srv := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once Close runs below
	}()
	defer wg.Wait()
	defer srv.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	base := "http://" + ln.Addr().String()

	var missesMS, summaryMS, loopMS []float64
	var buf bytes.Buffer
	var lines int
	loopback := func() float64 {
		req := &request{kind: "loopback", path: "/v1/classify", ctype: "application/json", body: spec(service.EmitMisses)}
		status, lat, err := send(ctx, hc, base, req, &buf, tr, in.req, parent)
		chk.expect("loopback answers 200", err == nil && status == http.StatusOK, "%s", describeFailure(req, status, err, buf.Bytes()))
		return float64(lat) / 1e6
	}
	for i := 0; i < sc.pairs; i++ {
		// Alternate which path goes first, so neither always runs on
		// the other's warm caches.
		var m *sink
		var ms float64
		if i%2 == 0 {
			m, ms = inProcess(service.EmitMisses)
			loopMS = append(loopMS, loopback())
		} else {
			loopMS = append(loopMS, loopback())
			m, ms = inProcess(service.EmitMisses)
		}
		missesMS = append(missesMS, ms)
		checkClassify(chk, m.last, m.lines, sc.specAccesses)
		chk.expect("loopback response equals the in-process one",
			buf.Len() == m.n && maphash.Bytes(bodySeed, buf.Bytes()) == m.h.Sum64(),
			"loopback %d bytes, in-process %d", buf.Len(), m.n)
		s, ms := inProcess(service.EmitSummary)
		summaryMS = append(summaryMS, ms)
		chk.expect("emit=misses ends in the emit=summary record", bytes.Equal(lastLine(m.last), lastLine(s.last)),
			"misses ends %.200q, summary is %.200q", lastLine(m.last), lastLine(s.last))
		lines = m.lines
	}
	body := buf.Bytes()
	if _, ok := checkClassify(chk, body, countLines(body), sc.specAccesses); !ok {
		return errors.New("the in-process classify response failed its checks")
	}
	out["service.render_ms"] = median(missesMS) - median(summaryMS)
	out["service.lines_per_request"] = float64(lines)
	out["service.transport_ms"] = median(loopMS) - median(missesMS)

	dir, err := env.subdir("memo-")
	if err != nil {
		return err
	}
	c := runner.Open(dir)
	art := memoArtifact{Body: body}
	art.Stats.Records = sc.specAccesses
	art.Stats.Emitted = uint64(lines)
	var storeNS, loadNS []float64
	for i := 0; i < sc.pairs; i++ {
		payload := map[string]any{"perfbench": i, "seed": in.seed}
		id := tr.begin("runner.memo_store", in.req, parent)
		t0 := time.Now()
		_, hit, err := runner.Memo(c, "perfbench-memo", payload, func() (memoArtifact, error) { return art, nil })
		storeNS = append(storeNS, float64(time.Since(t0)))
		tr.finish(id)
		chk.expect("memo store is a miss", err == nil && !hit, "hit %v, err %v", hit, err)

		id = tr.begin("runner.memo_load", in.req, parent)
		t0 = time.Now()
		got, hit, err := runner.Memo(c, "perfbench-memo", payload, func() (memoArtifact, error) {
			return memoArtifact{}, errors.New("memo entry missing")
		})
		loadNS = append(loadNS, float64(time.Since(t0)))
		tr.finish(id)
		chk.expect("memo load returns the stored body", err == nil && hit && bytes.Equal(got.Body, body), "hit %v, err %v", hit, err)
	}
	out["runner.memo_store_ns_per_byte"] = median(storeNS) / float64(len(body))
	out["runner.memo_load_ns_per_byte"] = median(loadNS) / float64(len(body))
	return nil
}

// sink is the in-process handler's response writer. It keeps only what
// the checks need (status, length, line count, hash, last bytes), so the
// in-process time carries no buffering a network client would not pay.
type sink struct {
	hdr    http.Header
	status int
	n      int
	lines  int
	h      maphash.Hash
	last   []byte
}

func newSink() *sink {
	w := &sink{hdr: http.Header{}}
	w.h.SetSeed(bodySeed)
	return w
}

func (w *sink) Header() http.Header { return w.hdr }

func (w *sink) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *sink) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	w.lines += bytes.Count(p, []byte("\n"))
	w.h.Write(p)
	w.last = append(w.last, p...)
	if len(w.last) > 8192 {
		w.last = append(w.last[:0], w.last[len(w.last)-4096:]...)
	}
	return len(p), nil
}

func (w *sink) Flush() {}

// specBurst reads mctd's service counters from a fresh daemon after one
// spec-mix block per client, for workloads that run no spec traffic.
func specBurst(ctx context.Context, env *runEnv) (serviceCounters, error) {
	s, err := startSpecSession(ctx, env, env.sc.burstAccesses)
	if err != nil {
		return serviceCounters{}, err
	}
	_, err = s.traffic(ctx, 0, nil)
	var cnt serviceCounters
	if err == nil {
		cnt, err = s.counters(ctx)
	}
	if _, serr := s.stop(); err == nil {
		err = serr
	}
	return cnt, err
}
