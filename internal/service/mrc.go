package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mrcSlug keys spec-path MRC profiles in the memo cache, sharing the
// cache (and, clustered, the hash ring) with classify and sweep cells.
const mrcSlug = "svc-mrc"

// maxMRCSizes bounds how many cache sizes one request may profile: each
// size costs a full classifying cache + oracle, so the list is the
// request's compute knob.
const maxMRCSizes = 16

// MRCSpec describes one miss-ratio-curve request: which access stream
// to profile (a named workload, or the uploaded trace), the SHARDS
// sampling parameters, and the cache-geometry ladder to split
// conflict/capacity at. The normalized spec is the memoization payload,
// so every field must deterministically change the result — which is
// also why the tenant is NOT part of the spec: two tenants asking the
// same question share one cached answer.
type MRCSpec struct {
	// Workload names a synthetic benchmark; empty on the upload path.
	Workload string `json:"workload,omitempty"`
	// Accesses bounds the workload stream (spec path only).
	Accesses uint64 `json:"accesses,omitempty"`
	// Seed feeds the workload generator.
	Seed uint64 `json:"seed,omitempty"`

	// SizesKB is the ascending ladder of cache sizes to report points
	// at (default 4..256 KB doubling). Each size gets its own
	// classifier run for the MCT conflict/capacity split.
	SizesKB []int `json:"sizes_kb,omitempty"`
	// Assoc, LineSize, TagBits, Index, IndexSeed describe the per-size
	// cache geometry, exactly as in ClassifySpec.
	Assoc     int    `json:"assoc,omitempty"`
	LineSize  int    `json:"line,omitempty"`
	TagBits   int    `json:"tag_bits,omitempty"`
	Index     string `json:"index,omitempty"`
	IndexSeed uint64 `json:"index_seed,omitempty"`

	// Rate is the initial SHARDS sampling rate in (0, 1] (0 = the
	// profiler default, 0.01). MaxSampled caps the tracked-line set,
	// bounding profiler memory (0 = the profiler default; subject to
	// the per-tenant cap).
	Rate       float64 `json:"rate,omitempty"`
	MaxSampled int     `json:"max_sampled,omitempty"`
}

// normalize fills defaults and validates. upload marks the trace-upload
// path; maxSet is the tenant quota's sampled-set cap (0 = profiler
// default only).
func (sp *MRCSpec) normalize(upload bool, maxAccesses uint64, maxSet int) error {
	if len(sp.SizesKB) == 0 {
		sp.SizesKB = []int{4, 8, 16, 32, 64, 128, 256}
	}
	if len(sp.SizesKB) > maxMRCSizes {
		return fmt.Errorf("%w: %d sizes requested, limit %d", ErrBadRequest, len(sp.SizesKB), maxMRCSizes)
	}
	slices.Sort(sp.SizesKB)
	sp.SizesKB = slices.Compact(sp.SizesKB)
	if sp.Assoc == 0 {
		sp.Assoc = 2
	}
	if sp.LineSize == 0 {
		sp.LineSize = 64
	}
	scheme, err := cache.ParseIndexScheme(sp.Index)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sp.Index = scheme.String()
	if sp.TagBits < 0 {
		return fmt.Errorf("%w: tag_bits must be >= 0", ErrBadRequest)
	}
	for _, kb := range sp.SizesKB {
		if kb <= 0 {
			return fmt.Errorf("%w: sizes_kb entries must be positive, got %d", ErrBadRequest, kb)
		}
		if err := sp.cacheConfig(kb).Validate(); err != nil {
			return fmt.Errorf("%w: size %dKB: %v", ErrBadRequest, kb, err)
		}
	}
	if sp.Rate == 0 {
		sp.Rate = mrc.DefaultRate
	}
	if sp.Rate <= 0 || sp.Rate > 1 {
		return fmt.Errorf("%w: rate %v outside (0, 1]", ErrBadRequest, sp.Rate)
	}
	if sp.MaxSampled < 0 {
		return fmt.Errorf("%w: max_sampled must be >= 0 (the service never profiles unbounded)", ErrBadRequest)
	}
	if sp.MaxSampled == 0 {
		sp.MaxSampled = mrc.DefaultMaxSampled
	}
	// The sampled set is the profiler's resident memory; the cap is a
	// quota dimension, so exceeding it is 429, not 400.
	setCap := mrc.DefaultMaxSampled
	if maxSet > 0 {
		setCap = maxSet
	}
	if sp.MaxSampled > setCap {
		return fmt.Errorf("%w: max_sampled %d exceeds the per-tenant sampled-set cap %d",
			ErrQuota, sp.MaxSampled, setCap)
	}
	if upload {
		if sp.Workload != "" {
			return fmt.Errorf("%w: workload is meaningless with an uploaded trace", ErrBadRequest)
		}
		return nil
	}
	if sp.Seed == 0 {
		sp.Seed = workload.DefaultSeed
	}
	if sp.Accesses == 0 {
		sp.Accesses = 100_000
	}
	if maxAccesses != 0 && sp.Accesses > maxAccesses {
		return fmt.Errorf("%w: accesses %d exceeds the service limit %d", ErrBadRequest, sp.Accesses, maxAccesses)
	}
	if _, ok := workload.ByName(sp.Workload); !ok {
		return fmt.Errorf("%w: unknown workload %q (valid: %s)",
			ErrBadRequest, sp.Workload, strings.Join(workload.Names(), ", "))
	}
	return nil
}

// cacheConfig maps the spec's geometry onto one ladder size.
func (sp MRCSpec) cacheConfig(kb int) cache.Config {
	scheme, _ := cache.ParseIndexScheme(sp.Index)
	return cache.Config{
		Name:      "L1D",
		Size:      kb * 1024,
		LineSize:  sp.LineSize,
		Assoc:     sp.Assoc,
		Indexing:  scheme,
		IndexSeed: sp.IndexSeed,
	}
}

// stream builds the access stream a normalized spec-path request
// describes.
func (sp MRCSpec) stream() trace.Stream {
	b, ok := workload.ByName(sp.Workload)
	if !ok {
		panic(fmt.Sprintf("service: workload %q vanished after validation", sp.Workload))
	}
	return trace.NewLimit(trace.NewMemOnly(b.Stream(sp.Seed)), sp.Accesses)
}

// mrcMCT is the per-size conflict/capacity split from the classifier's
// oracle: conflict+capacity+compulsory == misses <= accesses, counted
// on real-cache misses at that geometry.
type mrcMCT struct {
	Accesses   uint64  `json:"accesses"`
	Misses     uint64  `json:"misses"`
	Conflict   uint64  `json:"conflict"`
	Capacity   uint64  `json:"capacity"`
	Compulsory uint64  `json:"compulsory"`
	MissRatio  float64 `json:"miss_ratio"`
}

// mrcPoint is one NDJSON record of an MRC response: the SHARDS-sampled
// LRU miss-ratio estimate at a capacity, plus the exact simulated split
// at that geometry.
type mrcPoint struct {
	SizeKB    int     `json:"size_kb"`
	Lines     uint64  `json:"lines"`
	MissRatio float64 `json:"miss_ratio"`
	MCT       mrcMCT  `json:"mct"`
}

// MRCSummary is the trailing NDJSON record: the profiler's sampling
// telemetry, enough for a client to judge estimate quality.
type MRCSummary struct {
	Workload    string  `json:"workload,omitempty"`
	Accesses    uint64  `json:"accesses"`
	Sampled     uint64  `json:"sampled"`
	SampledSet  int     `json:"sampled_set"`
	Evicted     uint64  `json:"evicted"`
	RateInitial float64 `json:"rate_initial"`
	RateFinal   float64 `json:"rate_final"`
	Points      int     `json:"points"`
}

// runMRC plays every memory access of src through one SHARDS profiler
// and one classifier run per requested size, a struct-of-arrays batch
// at a time: the batch's memory ops are compacted once, then fanned to
// the profiler and every run (which never mutate the shared slices).
// charge, when non-nil, is called once per batch with the newly
// sampled-reference count — the tenant quota hook; its error aborts
// the stream mid-flight. After the source drains cleanly, the points
// stream in ascending size order; the summary line is returned for the
// caller to write last (as runClassify's is). The point lines go to
// sink together, once, and sink must not keep the buffer.
func runMRC(ctx context.Context, spec MRCSpec, src trace.BatchSource, sink func([]byte) error, charge func(samples uint64) error) (runStats, mrcSummaryLine, error) {
	var st runStats
	prof := mrc.New(mrc.Config{Rate: spec.Rate, MaxSampled: spec.MaxSampled, LineSize: spec.LineSize})
	runs := make([]*classify.Run, len(spec.SizesKB))
	for i, kb := range spec.SizesKB {
		run, err := classify.NewRun(spec.cacheConfig(kb), spec.TagBits)
		if err != nil {
			return st, mrcSummaryLine{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		runs[i] = run
	}
	batch := trace.NewBatch(trace.DefaultBatchSize)
	addrs := make([]mem.Addr, 0, trace.DefaultBatchSize)
	stores := make([]bool, 0, trace.DefaultBatchSize)
	var lastSampled uint64
	for {
		if cerr := ctx.Err(); cerr != nil {
			return st, mrcSummaryLine{}, cerr
		}
		n := src.ReadBatch(batch, trace.DefaultBatchSize)
		if n == 0 {
			break
		}
		addrs, stores = addrs[:0], stores[:0]
		for i := 0; i < n; i++ {
			if batch.Op[i].IsMem() {
				addrs = append(addrs, batch.Addr[i])
				stores = append(stores, batch.Op[i] == trace.Store)
			}
		}
		prof.ObserveBatch(addrs)
		for _, run := range runs {
			run.AccessBatch(addrs, stores)
		}
		st.Records += uint64(len(addrs))
		if charge != nil {
			cur := prof.SampledRefs()
			if err := charge(cur - lastSampled); err != nil {
				return st, mrcSummaryLine{}, err
			}
			lastSampled = cur
		}
	}
	if err := src.Err(); err != nil {
		return st, mrcSummaryLine{}, err
	}
	ps := prof.Stats()
	st.Samples = ps.Sampled
	var buf []byte
	for i, kb := range spec.SizesKB {
		run := runs[i]
		lines := uint64(kb) * 1024 / uint64(spec.LineSize)
		compulsory, capacity, conflict := run.Oracle.Counts()
		misses := run.Acc.Misses()
		var mr float64
		if st.Records > 0 {
			mr = float64(misses) / float64(st.Records)
		}
		pt := mrcPoint{
			SizeKB:    kb,
			Lines:     lines,
			MissRatio: prof.MissRatio(lines),
			MCT: mrcMCT{
				Accesses:   st.Records,
				Misses:     misses,
				Conflict:   conflict,
				Capacity:   capacity,
				Compulsory: compulsory,
				MissRatio:  mr,
			},
		}
		var err error
		if buf, err = appendJSONLine(buf, struct {
			Point mrcPoint `json:"point"`
		}{pt}); err != nil {
			return st, mrcSummaryLine{}, err
		}
	}
	if err := sink(buf); err != nil {
		return st, mrcSummaryLine{}, err
	}
	st.Emitted += uint64(len(spec.SizesKB))
	sum := MRCSummary{
		Workload:    spec.Workload,
		Accesses:    st.Records,
		Sampled:     ps.Sampled,
		SampledSet:  ps.SampledSet,
		Evicted:     ps.Evicted,
		RateInitial: ps.RateInitial,
		RateFinal:   ps.RateFinal,
		Points:      len(spec.SizesKB),
	}
	return st, mrcSummaryLine{sum}, nil
}

// mrcSummaryLine is the trailing NDJSON record of an MRC profile.
type mrcSummaryLine struct {
	Summary MRCSummary `json:"summary"`
}

// mrcRaw computes one spec-path MRC profile and returns its encoded
// artifact — the exact bytes the memo cache stores, so local compute,
// forwarded cells, and cache replay agree byte for byte.
func (s *Service) mrcRaw(ctx context.Context, spec MRCSpec) ([]byte, error) {
	var body []byte
	st, sum, err := runMRC(ctx, spec, trace.NewStreamBatcher(spec.stream()), func(b []byte) error {
		body = append(body, b...)
		return nil
	}, nil)
	if err == nil {
		body, err = appendJSONLine(body, sum)
	}
	if err != nil {
		return nil, err
	}
	st.Emitted++
	s.records.Add(st.Records)
	s.mrcSamples.Add(st.Samples)
	return encodeArtifact(st, body)
}

// mrcOut is mrcMemo's task result.
type mrcOut struct {
	raw []byte
	hit bool
}

// mrcMemo computes (or replays) one spec-path MRC profile through the
// cell path — local memo cache, then (clustered) the hash ring — under
// the service's supervision policy, so an MRC profile gets the same
// retries, deadline, and fault-injection treatment as a classify batch.
func (s *Service) mrcMemo(ctx context.Context, spec MRCSpec) (artifact, bool, error) {
	jobCtx := runner.WithOptions(ctx, s.supervision()...)
	tasks := []runner.Task[mrcOut]{runner.NewTask("mrc/"+spec.Workload, func(tctx context.Context) (mrcOut, error) {
		_, sp := obs.Start(tctx, "cache.lookup")
		sp.Str("workload", spec.Workload)
		raw, hit, err := s.memoCell(tctx, mrcSlug, spec, func() ([]byte, error) {
			return s.mrcRaw(tctx, spec)
		})
		sp.Bool("hit", hit)
		sp.Err(err)
		sp.End()
		return mrcOut{raw: raw, hit: hit}, err
	})}
	out, err := runner.Map(jobCtx, tasks)
	if err != nil {
		return artifact{}, false, err
	}
	art, err := decodeArtifact(out[0].raw)
	return art, out[0].hit, err
}

// handleMRC serves POST /v1/mrc. A JSON body is a workload spec,
// memoized through the shared cell path; any other body is a binary
// trace, profiled as it is read under the service's limits and the
// tenant's quota. Either way the response is NDJSON — per-size points,
// then a summary — and the job ID rides the X-Mct-Job header.
func (s *Service) handleMRC(w http.ResponseWriter, r *http.Request) {
	_ = http.NewResponseController(w).EnableFullDuplex()

	streaming := !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json")
	if s.shed(w, r, streaming) {
		return
	}

	client := clientID(r)
	tenant, terr := tenantID(r)
	if terr != nil {
		writeErr(w, terr)
		return
	}
	id := s.jobs.NewID()
	ctx, root := obs.Start(obs.Inject(r.Context(), s.ring, id), "http.mrc")
	root.Str("client", client)
	root.Str("tenant", tenant)
	defer root.End()
	ctx = withReqMeta(ctx, reqMeta{jobID: id, idemKey: r.Header.Get(IdemHeader), priority: r.Header.Get(PriorityHeader)})
	r = r.WithContext(ctx)
	defer func(t0 time.Time) { s.hMRC.ObserveDuration(time.Since(t0)) }(time.Now())
	s.mrcReqs.Add(1)

	// Quota gate in front of admission: a tenant already over budget is
	// rejected before it can occupy an admission slot.
	if err := s.tenants.precheck(tenant); err != nil {
		s.quotaRejects.Add(1)
		root.Err(err)
		writeErr(w, err)
		return
	}

	release, err := s.admit(r.Context(), client)
	if err != nil {
		root.Err(err)
		writeErr(w, err)
		return
	}
	defer release()

	s.createJob(id, "mrc", client, r.Header.Get(IdemHeader))
	w.Header().Set("X-Mct-Job", id)

	if !streaming {
		s.mrcSpecRequest(w, r, id, tenant)
		return
	}
	s.mrcUploadRequest(w, r, id, tenant)
}

// mrcSpecRequest handles the JSON-spec flavor of /v1/mrc.
func (s *Service) mrcSpecRequest(w http.ResponseWriter, r *http.Request, id, tenant string) {
	var spec MRCSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		err = fmt.Errorf("%w: decoding spec: %v", ErrBadRequest, err)
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}
	if err := spec.normalize(false, s.cfg.MaxSpecAccesses, s.cfg.Tenant.MaxSampledSet); err != nil {
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}

	s.startJob(id, spec)
	art, hit, err := s.mrcMemo(r.Context(), spec)
	if err != nil {
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}
	var hits, misses uint64
	if hit {
		hits = 1
	} else {
		misses = 1
		// Charge only cold computes: a warm hit replays cached bytes
		// without reprocessing a single sample. Record-then-compare
		// semantics mean an over-budget result still serves — the NEXT
		// request hits the precheck.
		_ = s.tenants.charge(tenant, art.Stats.Samples, 0)
	}
	s.finishJob(id, nil, art.Stats.Records, art.Stats.Emitted, hits, misses)
	w.Header().Set("Content-Type", "application/x-ndjson")
	// A failed write means the client left; the result is memoized, so
	// its retry replays these bytes.
	_, _ = w.Write(art.Body)
}

// countingReader counts bytes read from an upload body so ingest can be
// charged per batch. Single-goroutine: the trace reader and the charge
// callback both run on the request goroutine.
type countingReader struct {
	r        io.Reader
	n, taken uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// take returns the bytes read since the previous take.
func (c *countingReader) take() uint64 {
	d := c.n - c.taken
	c.taken = c.n
	return d
}

// mrcUploadRequest handles the binary-trace flavor of /v1/mrc: the body
// is an MCTR trace, profiled as it is read — never buffered, never
// memoized (unknown content), charged against the tenant per batch.
// Limit and quota violations mid-stream append a trailing error record.
func (s *Service) mrcUploadRequest(w http.ResponseWriter, r *http.Request, id, tenant string) {
	spec, err := mrcSpecFromQuery(r)
	if err == nil {
		err = spec.normalize(true, 0, s.cfg.Tenant.MaxSampledSet)
	}
	if err != nil {
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}

	// No spec in the journal: the trace bytes live only in this request
	// body, so the job is not re-drivable after a crash.
	s.startJob(id, nil)
	cr := &countingReader{r: r.Body}
	rd, err := trace.NewReaderContext(r.Context(), cr, s.cfg.Limits)
	if err != nil {
		if !errors.Is(err, trace.ErrTraceTooLarge) && !errors.Is(err, context.Canceled) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		s.finishJob(id, err, 0, 0, 0, 0)
		writeErrJob(w, err, id)
		return
	}

	nw := newNDJSONWriter(w)
	_, sp := obs.Start(r.Context(), "mrc.upload")
	st, sum, err := runMRC(r.Context(), spec, rd, nw.write, func(samples uint64) error {
		nb := cr.take()
		s.mrcSamples.Add(samples)
		s.mrcIngest.Add(nb)
		if cerr := s.tenants.charge(tenant, samples, nb); cerr != nil {
			s.quotaRejects.Add(1)
			return cerr
		}
		return nil
	})
	sp.Int("records", int64(st.Records))
	sp.Err(err)
	sp.End()
	if err != nil {
		s.finishJob(id, err, st.Records, st.Emitted+1, 0, 0)
		_ = nw.emit(errorBody{Error: err.Error(), Status: statusFor(err)})
		return
	}
	s.records.Add(st.Records)
	s.finishJob(id, nil, st.Records, st.Emitted+1, 0, 0)
	_ = nw.emit(sum)
}

// mrcSpecFromQuery maps the upload path's query parameters onto a spec.
// sizes_kb is comma-separated ("sizes_kb=4,8,32").
func mrcSpecFromQuery(r *http.Request) (MRCSpec, error) {
	var spec MRCSpec
	q := r.URL.Query()
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"assoc", &spec.Assoc},
		{"line", &spec.LineSize},
		{"tag_bits", &spec.TagBits},
		{"max_sampled", &spec.MaxSampled},
	} {
		if v := q.Get(f.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return spec, fmt.Errorf("%w: query %s=%q is not an integer", ErrBadRequest, f.name, v)
			}
			*f.dst = n
		}
	}
	if v := q.Get("sizes_kb"); v != "" {
		for _, part := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return spec, fmt.Errorf("%w: query sizes_kb entry %q is not an integer", ErrBadRequest, part)
			}
			spec.SizesKB = append(spec.SizesKB, n)
		}
	}
	if v := q.Get("rate"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return spec, fmt.Errorf("%w: query rate=%q is not a number", ErrBadRequest, v)
		}
		spec.Rate = f
	}
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
