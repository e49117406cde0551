package service

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrBadRequest marks a request the client got wrong (unknown workload,
// invalid cache geometry, malformed body). statusFor maps it to 400.
var ErrBadRequest = errors.New("service: invalid request")

// Emit modes for classify responses.
const (
	// EmitSummary streams only the trailing summary line.
	EmitSummary = "summary"
	// EmitMisses streams one line per miss plus the summary (the default:
	// hits dominate any healthy trace and carry no classification).
	EmitMisses = "misses"
	// EmitAll streams every access.
	EmitAll = "all"
)

// ClassifySpec describes one classification request: which access stream
// to classify (a named synthetic workload, or — on the upload path — the
// request body's binary trace) against which cache geometry. The
// normalized spec doubles as the memoization-cache payload, so every
// field must deterministically change the result.
type ClassifySpec struct {
	// Workload names a synthetic benchmark (workload.Names). Empty on the
	// upload path, where the trace itself is the workload.
	Workload string `json:"workload,omitempty"`
	// Accesses is how many memory accesses of the workload to classify.
	Accesses uint64 `json:"accesses,omitempty"`
	// Seed feeds the workload generator.
	Seed uint64 `json:"seed,omitempty"`

	// SizeKB, Assoc, LineSize describe the simulated cache; TagBits is the
	// MCT's partial-tag width (0 = full tags).
	SizeKB   int `json:"size_kb,omitempty"`
	Assoc    int `json:"assoc,omitempty"`
	LineSize int `json:"line,omitempty"`
	TagBits  int `json:"tag_bits,omitempty"`

	// Index selects the cache's row-index scheme: "modulo" (default),
	// "skewed", or "random". IndexSeed keys the random scheme's per-way
	// hashes (0 = fixed default key).
	Index     string `json:"index,omitempty"`
	IndexSeed uint64 `json:"index_seed,omitempty"`

	// Emit selects the response granularity: summary, misses, or all.
	Emit string `json:"emit,omitempty"`
}

// normalize fills defaults and validates. upload marks the trace-upload
// path, where no workload name is expected and Accesses is ignored (the
// reader's Limits bound the stream instead).
func (sp *ClassifySpec) normalize(upload bool, maxAccesses uint64) error {
	if sp.SizeKB == 0 {
		sp.SizeKB = 32
	}
	if sp.Assoc == 0 {
		sp.Assoc = 2
	}
	if sp.LineSize == 0 {
		sp.LineSize = 64
	}
	if sp.Emit == "" {
		sp.Emit = EmitMisses
	}
	switch sp.Emit {
	case EmitSummary, EmitMisses, EmitAll:
	default:
		return fmt.Errorf("%w: emit %q (valid: %s, %s, %s)", ErrBadRequest, sp.Emit, EmitSummary, EmitMisses, EmitAll)
	}
	scheme, err := cache.ParseIndexScheme(sp.Index)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Canonicalize so equivalent spellings ("", "modulo"; "skew",
	// "skewed") share one memoization-cache key.
	sp.Index = scheme.String()
	if err := sp.cacheConfig().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if sp.TagBits < 0 {
		return fmt.Errorf("%w: tag_bits must be >= 0", ErrBadRequest)
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

// cacheConfig maps the spec onto the simulator's cache geometry.
func (sp ClassifySpec) cacheConfig() cache.Config {
	// normalize validated Index; a bad spelling that skipped normalize
	// falls back to modulo via the parse default.
	scheme, _ := cache.ParseIndexScheme(sp.Index)
	return cache.Config{
		Name:      "L1D",
		Size:      sp.SizeKB * 1024,
		LineSize:  sp.LineSize,
		Assoc:     sp.Assoc,
		Indexing:  scheme,
		IndexSeed: sp.IndexSeed,
	}
}

// accessLine is one NDJSON record of a classify response: the access, the
// oracle's classic verdict, and the MCT's on-the-fly verdict (misses
// only; a hit has no miss class).
type accessLine struct {
	I      uint64 `json:"i"`
	Addr   string `json:"addr"`
	Store  bool   `json:"store,omitempty"`
	Hit    bool   `json:"hit"`
	Oracle string `json:"oracle"`
	MCT    string `json:"mct,omitempty"`
}

// ClassifySummary is the trailing NDJSON record: totals plus the MCT's
// agreement with the oracle, the paper's accuracy metric.
type ClassifySummary struct {
	Workload    string  `json:"workload,omitempty"`
	Accesses    uint64  `json:"accesses"`
	Misses      uint64  `json:"misses"`
	Conflict    uint64  `json:"conflict"`
	Capacity    uint64  `json:"capacity"`
	Compulsory  uint64  `json:"compulsory"`
	ConflictAcc float64 `json:"mct_conflict_accuracy"`
	CapacityAcc float64 `json:"mct_capacity_accuracy"`
	OverallAcc  float64 `json:"mct_overall_accuracy"`
}

// classifyStats counts a classification's work for job accounting.
type classifyStats struct {
	Records uint64 `json:"records"`
	Emitted uint64 `json:"emitted"`
}

// runClassify plays every memory access of src through the classifying
// cache and the oracle, one struct-of-arrays batch at a time, emitting
// NDJSON records per the spec's emit mode through emit (one call per
// line, already marshaled). Batches bound the resident state: an upload
// is decoded ~256 records at a time straight off the request body, never
// buffered whole, and the steady state allocates nothing per record. The
// context is checked once per batch so an abandoned request stops doing
// work promptly. src.Err() is consulted after the source ends (a
// trace.Reader's decode error, truncation, or limit violation): a failed
// source aborts the run before the summary, so a truncated or over-limit
// upload never masquerades as a complete classification. The summary
// line is returned, not emitted: the caller writes it last, after
// whatever must precede the final byte (an HTTP handler finishes its
// job first).
func runClassify(ctx context.Context, spec ClassifySpec, src trace.BatchSource, emit func(v any) error) (classifyStats, classifySummaryLine, error) {
	var st classifyStats
	run, err := classify.NewRun(spec.cacheConfig(), spec.TagBits)
	if err != nil {
		return st, classifySummaryLine{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	bc := sim.NewBatchClassifier(run, 0)
	for {
		if cerr := ctx.Err(); cerr != nil {
			return st, classifySummaryLine{}, cerr
		}
		n, m := bc.Classify(src)
		if n == 0 {
			break
		}
		if spec.Emit != EmitSummary {
			for i := 0; i < m; i++ {
				hit := run.Hits[i]
				if spec.Emit == EmitMisses && hit {
					continue
				}
				line := accessLine{
					I:      st.Records + uint64(i),
					Addr:   fmt.Sprintf("0x%x", uint64(bc.Addrs[i])),
					Store:  bc.Stores[i],
					Hit:    hit,
					Oracle: run.Kinds[i].String(),
				}
				if !hit {
					line.MCT = run.Classes[i].String()
				}
				if err := emit(line); err != nil {
					return st, classifySummaryLine{}, err
				}
				st.Emitted++
			}
		}
		st.Records += uint64(m)
	}
	if err := src.Err(); err != nil {
		return st, classifySummaryLine{}, err
	}
	sum := ClassifySummary{
		Workload:    spec.Workload,
		Accesses:    st.Records,
		Misses:      run.Acc.Misses(),
		Conflict:    run.Acc.ConflictTotal,
		Capacity:    run.Acc.CapacityTotal,
		Compulsory:  run.Acc.CompulsoryTotal,
		ConflictAcc: run.Acc.ConflictAccuracy(),
		CapacityAcc: run.Acc.CapacityAccuracy(),
		OverallAcc:  run.Acc.OverallAccuracy(),
	}
	return st, classifySummaryLine{sum}, nil
}

// classifySummaryLine is the trailing NDJSON record of a classification.
type classifySummaryLine struct {
	Summary ClassifySummary `json:"summary"`
}

// specStream builds the access stream a normalized spec describes: the
// named workload's trace, truncated to the requested access count,
// memory operations only.
func specStream(spec ClassifySpec) trace.Stream {
	b, ok := workload.ByName(spec.Workload)
	if !ok {
		// normalize validated the name; reaching here is a bug.
		panic(fmt.Sprintf("service: workload %q vanished after validation", spec.Workload))
	}
	return trace.NewLimit(trace.NewMemOnly(b.Stream(spec.Seed)), spec.Accesses)
}
