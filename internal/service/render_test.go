package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// accessLine is the reference for one classify access record: the
// struct whose json.Marshal encoding appendAccessLine must reproduce.
type accessLine struct {
	I      uint64 `json:"i"`
	Addr   string `json:"addr"`
	Store  bool   `json:"store,omitempty"`
	Hit    bool   `json:"hit"`
	Oracle string `json:"oracle"`
	MCT    string `json:"mct,omitempty"`
}

// referenceAccessLine renders one access record the reflective way.
func referenceAccessLine(t testing.TB, i, addr uint64, store, hit bool, oracle classify.Kind, mct core.Class) []byte {
	line := accessLine{I: i, Addr: fmt.Sprintf("0x%x", addr), Store: store, Hit: hit, Oracle: oracle.String()}
	if !hit {
		line.MCT = mct.String()
	}
	return referenceJSONLine(t, line)
}

func referenceJSONLine(t testing.TB, v any) []byte {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(enc, '\n')
}

// FuzzAccessLine holds the hand-rolled access-line renderer to
// json.Marshal byte for byte over arbitrary field values, out-of-range
// verdict kinds included.
func FuzzAccessLine(f *testing.F) {
	f.Add(uint64(0), uint64(0), false, true, uint8(classify.Hit), uint8(0))
	f.Add(uint64(1)<<63, ^uint64(0), true, false, uint8(classify.Conflict), uint8(core.Conflict))
	f.Add(uint64(99_999), uint64(0x7ffe_0040), false, false, uint8(classify.Compulsory), uint8(core.Capacity))
	f.Add(uint64(42), uint64(0xdeadbeef), true, true, uint8(200), uint8(9))
	f.Fuzz(func(t *testing.T, i, addr uint64, store, hit bool, kind, class uint8) {
		want := referenceAccessLine(t, i, addr, store, hit, classify.Kind(kind), core.Class(class))
		got := appendAccessLine([]byte("prev\n"), i, addr, store, hit, classify.Kind(kind), core.Class(class))
		if !bytes.Equal(got, append([]byte("prev\n"), want...)) {
			t.Fatalf("appendAccessLine = %q, json.Marshal = %q", got, want)
		}
	})
}

// referenceClassifyBody renders a classify response the way the
// per-line json.Marshal encoder did: one reflective marshal per
// access line, then the summary.
func referenceClassifyBody(t *testing.T, spec ClassifySpec, src trace.BatchSource) []byte {
	t.Helper()
	run, err := classify.NewRun(spec.cacheConfig(), spec.TagBits)
	if err != nil {
		t.Fatal(err)
	}
	bc := sim.NewBatchClassifier(run, 0)
	var out []byte
	var records uint64
	for {
		n, m := bc.Classify(src)
		if n == 0 {
			break
		}
		for i := 0; i < m && spec.Emit != EmitSummary; i++ {
			if spec.Emit == EmitMisses && run.Hits[i] {
				continue
			}
			out = append(out, referenceAccessLine(t, records+uint64(i), uint64(bc.Addrs[i]), bc.Stores[i], run.Hits[i], run.Kinds[i], run.Classes[i])...)
		}
		records += uint64(m)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return append(out, referenceJSONLine(t, classifySummaryLine{ClassifySummary{
		Workload:    spec.Workload,
		Accesses:    records,
		Misses:      run.Acc.Misses(),
		Conflict:    run.Acc.ConflictTotal,
		Capacity:    run.Acc.CapacityTotal,
		Compulsory:  run.Acc.CompulsoryTotal,
		ConflictAcc: run.Acc.ConflictAccuracy(),
		CapacityAcc: run.Acc.CapacityAccuracy(),
		OverallAcc:  run.Acc.OverallAccuracy(),
	}})...)
}

// referenceMRCBody renders an MRC response the way the per-line
// json.Marshal encoder did.
func referenceMRCBody(t *testing.T, spec MRCSpec, src trace.BatchSource) []byte {
	t.Helper()
	prof := mrc.New(mrc.Config{Rate: spec.Rate, MaxSampled: spec.MaxSampled, LineSize: spec.LineSize})
	runs := make([]*classify.Run, len(spec.SizesKB))
	for i, kb := range spec.SizesKB {
		run, err := classify.NewRun(spec.cacheConfig(kb), spec.TagBits)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run
	}
	batch := trace.NewBatch(trace.DefaultBatchSize)
	var records uint64
	for {
		n := src.ReadBatch(batch, trace.DefaultBatchSize)
		if n == 0 {
			break
		}
		var addrs []mem.Addr
		var stores []bool
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
		records += uint64(len(addrs))
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i, kb := range spec.SizesKB {
		lines := uint64(kb) * 1024 / uint64(spec.LineSize)
		compulsory, capacity, conflict := runs[i].Oracle.Counts()
		misses := runs[i].Acc.Misses()
		var mr float64
		if records > 0 {
			mr = float64(misses) / float64(records)
		}
		out = append(out, referenceJSONLine(t, struct {
			Point mrcPoint `json:"point"`
		}{mrcPoint{SizeKB: kb, Lines: lines, MissRatio: prof.MissRatio(lines), MCT: mrcMCT{
			Accesses: records, Misses: misses, Conflict: conflict, Capacity: capacity, Compulsory: compulsory, MissRatio: mr,
		}}})...)
	}
	ps := prof.Stats()
	return append(out, referenceJSONLine(t, mrcSummaryLine{MRCSummary{
		Workload: spec.Workload, Accesses: records, Sampled: ps.Sampled, SampledSet: ps.SampledSet,
		Evicted: ps.Evicted, RateInitial: ps.RateInitial, RateFinal: ps.RateFinal, Points: len(spec.SizesKB),
	}})...)
}

// traceOf writes a stream as a v2 trace image for the upload path.
func traceOf(t *testing.T, s trace.Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	var in trace.Instr
	for s.Next(&in) {
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readerOf(t *testing.T, raw []byte) trace.BatchSource {
	t.Helper()
	rd, err := trace.NewReaderContext(context.Background(), bytes.NewReader(raw), trace.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func postBody(t *testing.T, url, ctype string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, out)
	}
	return out
}

// sameBody fails with the first differing line.
func sameBody(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s: line %d = %q, reference %q", what, i, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, reference %d", what, len(g), len(w))
}

// TestResponsesMatchReferenceEncoder renders classify responses on the
// spec path (cold, then replayed from the memo cache) and the upload
// path, and MRC responses on both paths, for three workloads in every
// index scheme and emit mode, and requires each to equal the reflective
// per-line reference byte for byte.
func TestResponsesMatchReferenceEncoder(t *testing.T) {
	_, srv := newTestService(t, Config{})
	const accesses = 3000
	for _, wl := range []string{"swim", "gcc", "tomcatv"} {
		for _, scheme := range []string{"modulo", "skewed", "random"} {
			t.Run(wl+"/"+scheme, func(t *testing.T) {
				for _, emit := range []string{EmitSummary, EmitMisses, EmitAll} {
					spec := ClassifySpec{Workload: wl, Accesses: accesses, SizeKB: 8, Index: scheme, Emit: emit}
					if err := spec.normalize(false, 0); err != nil {
						t.Fatal(err)
					}
					want := referenceClassifyBody(t, spec, trace.NewStreamBatcher(specStream(spec)))
					req, _ := json.Marshal(spec)
					sameBody(t, "classify spec cold "+emit, postBody(t, srv.URL+"/v1/classify", "application/json", req), want)
					sameBody(t, "classify spec warm "+emit, postBody(t, srv.URL+"/v1/classify", "application/json", req), want)

					raw := traceOf(t, specStream(spec))
					up := spec
					up.Workload = ""
					want = referenceClassifyBody(t, up, readerOf(t, raw))
					url := fmt.Sprintf("%s/v1/classify?size_kb=8&index=%s&emit=%s", srv.URL, scheme, emit)
					sameBody(t, "classify upload "+emit, postBody(t, url, "application/octet-stream", raw), want)
				}

				spec := MRCSpec{Workload: wl, Accesses: accesses, Index: scheme}
				if err := spec.normalize(false, 0, 0); err != nil {
					t.Fatal(err)
				}
				want := referenceMRCBody(t, spec, trace.NewStreamBatcher(spec.stream()))
				req, _ := json.Marshal(spec)
				sameBody(t, "mrc spec cold", postBody(t, srv.URL+"/v1/mrc", "application/json", req), want)
				sameBody(t, "mrc spec warm", postBody(t, srv.URL+"/v1/mrc", "application/json", req), want)

				raw := traceOf(t, spec.stream())
				up := spec
				up.Workload = ""
				want = referenceMRCBody(t, up, readerOf(t, raw))
				sameBody(t, "mrc upload", postBody(t, srv.URL+"/v1/mrc?index="+scheme, "application/octet-stream", raw), want)
			})
		}
	}
}
