package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

// maxSweepCells bounds the artifacts × seeds expansion so a typo'd seed
// list cannot fan a single request into millions of cells.
const maxSweepCells = 10_000

// SweepSpec is the body of POST /v1/sweep: which experiments to run at
// what scale. Validation is shared with cmd/paperbench's -experiment
// flag (experiments.ValidateSelection), so the service and the CLI
// accept exactly the same selections and reject typos with the same
// valid-name listing.
type SweepSpec struct {
	// Experiments selects artifacts by name ("all", "fig2", "table1", ...).
	Experiments []string `json:"experiments"`
	// Quick uses the reduced test-scale parameters.
	Quick bool `json:"quick,omitempty"`
	// Accesses/Instructions/Seed override individual parameters when
	// nonzero.
	Accesses     uint64 `json:"accesses,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	// Seeds, when set, expands the sweep into one cell per (artifact,
	// seed) pair — the fleet-scale shape: each cell is independently
	// memoized and ring-routed. Empty keeps the one-cell-per-artifact
	// behavior (and the exact pre-Seeds output bytes).
	Seeds []uint64 `json:"seeds,omitempty"`
}

// normalize validates the selection and resolves the run parameters.
func (sp *SweepSpec) normalize() (experiments.Params, []experiments.Artifact, error) {
	if len(sp.Experiments) == 0 {
		sp.Experiments = []string{experiments.SelectAll}
	}
	if err := experiments.ValidateSelection(sp.Experiments); err != nil {
		return experiments.Params{}, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	arts, err := experiments.Select(sp.Experiments)
	if err != nil {
		return experiments.Params{}, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if cells := len(arts) * max(1, len(sp.Seeds)); cells > maxSweepCells {
		return experiments.Params{}, nil, fmt.Errorf("%w: sweep expands to %d cells (limit %d)", ErrBadRequest, cells, maxSweepCells)
	}
	p := experiments.Default()
	if sp.Quick {
		p = experiments.Quick()
	}
	if sp.Accesses != 0 {
		p.MemAccesses = sp.Accesses
	}
	if sp.Instructions != 0 {
		p.Instructions = sp.Instructions
	}
	if sp.Seed != 0 {
		p.Seed = sp.Seed
	}
	return p, arts, nil
}

// sweepLine is one NDJSON record of a sweep response: the artifact's
// result verbatim (the memo cache's raw JSON, so cold and warm runs are
// byte-identical) or its error. Cell names the (artifact, seed) cell in
// seeded sweeps and is absent otherwise, keeping legacy output bytes
// unchanged.
type sweepLine struct {
	Experiment string          `json:"experiment"`
	Cell       string          `json:"cell,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// sweepSummary is the trailing NDJSON record.
type sweepSummary struct {
	Experiments int `json:"experiments"`
	OK          int `json:"ok"`
	Failed      int `json:"failed"`
}

// sweepCell is one cell's outcome inside a sweep.
type sweepCell struct {
	raw []byte
	hit bool
}

// sweepCellDef is one unit of sweep work: an artifact at concrete
// parameters, with the ID that names it in checkpoints and output.
type sweepCellDef struct {
	art    experiments.Artifact
	p      experiments.Params
	id     string // slug, or slug@s<seed> in seeded sweeps
	seeded bool
}

// sweepCells expands (params, artifacts, seeds) into the sweep's cell
// list. No seeds: one cell per artifact at p, IDs are bare slugs —
// exactly the historical shape. Seeds: artifacts × seeds cells, each
// with p.Seed overridden, in artifact-major order so output stays
// grouped by experiment.
func sweepCells(p experiments.Params, arts []experiments.Artifact, seeds []uint64) []sweepCellDef {
	if len(seeds) == 0 {
		cells := make([]sweepCellDef, len(arts))
		for i, art := range arts {
			cells[i] = sweepCellDef{art: art, p: p, id: art.Slug}
		}
		return cells
	}
	cells := make([]sweepCellDef, 0, len(arts)*len(seeds))
	for _, art := range arts {
		for _, seed := range seeds {
			ps := p
			ps.Seed = seed
			cells = append(cells, sweepCellDef{art: art, p: ps, id: fmt.Sprintf("%s@s%d", art.Slug, seed), seeded: true})
		}
	}
	return cells
}

// sweepRunID keys a sweep's checkpoint by everything that defines it —
// parameters, selection, seeds, code version — mirroring cmd/paperbench's
// scheme so a rerun of the same configuration finds its own progress and
// nothing else's. The seeds component is appended only when present, so
// pre-Seeds sweeps keep their historical checkpoint IDs.
func sweepRunID(p experiments.Params, arts []experiments.Artifact, seeds []uint64) string {
	sel := make([]string, 0, len(arts))
	for _, a := range arts {
		sel = append(sel, a.Slug)
	}
	sort.Strings(sel)
	enc, _ := json.Marshal(p)
	h := sha256.New()
	fmt.Fprintf(h, "svc\x00code=%s\x00params=%s\x00sel=%s", runner.CodeVersion(), enc, strings.Join(sel, ","))
	if len(seeds) > 0 {
		senc, _ := json.Marshal(seeds)
		fmt.Fprintf(h, "\x00seeds=%s", senc)
	}
	return "svc-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// runSweep executes the sweep's cells through the supervised worker
// pool, each memoized under the same (slug, Params) key cmd/paperbench
// uses — a sweep the CLI already computed replays from cache, and vice
// versa. Progress is checkpointed per cell, so a sweep killed mid-flight
// and resubmitted recomputes only the unfinished cells (the finished
// ones hit the cache). Clustered, each cell routes through memoCell —
// remote-owned cells forward to their ring owner — and the fan-out
// widens beyond local compute capacity so forwards overlap while the
// compute gate keeps local work bounded. Returns the NDJSON lines in
// cell order, cache-hit counts, and the pool's error (a MultiError
// under partial results).
func (s *Service) runSweep(ctx context.Context, p experiments.Params, arts []experiments.Artifact, seeds []uint64) ([]sweepLine, uint64, uint64, error) {
	cells := sweepCells(p, arts, seeds)

	var ckpt *runner.Checkpoint
	if s.cache != nil && s.cfg.CheckpointDir != "" {
		ckpt = runner.OpenCheckpoint(s.cfg.CheckpointDir, sweepRunID(p, arts, seeds))
	}

	// Job-scoped supervision: the options ride the context into the pool,
	// so everything this job fans out inherits the policy without global
	// state (two concurrent sweeps could run different policies).
	opts := s.supervision()
	if s.cluster.Enabled() {
		// Widen the coordinator fan-out past local compute capacity:
		// forwards are network-bound and must overlap; actual local
		// compute is bounded by the gate (compSem), not the pool width.
		fan := s.computeWorkers() + 32
		if fan > len(cells) {
			fan = len(cells)
		}
		if fan < 1 {
			fan = 1
		}
		opts = append(opts, runner.Workers(fan))
	}
	jobCtx := runner.WithOptions(ctx, append(opts, runner.PartialResults())...)

	tasks := make([]runner.Task[sweepCell], len(cells))
	for i, cell := range cells {
		cell := cell
		tasks[i] = runner.NewTask("sweep/"+cell.id, func(tctx context.Context) (sweepCell, error) {
			_, sp := obs.Start(tctx, "cache.lookup")
			sp.Str("experiment", cell.id)
			raw, hit, err := s.memoCell(tctx, cell.art.Slug, cell.p, func() ([]byte, error) {
				if cerr := tctx.Err(); cerr != nil {
					return nil, cerr
				}
				return s.experimentRaw(tctx, cell.art.Slug, cell.p)
			})
			sp.Bool("hit", hit)
			sp.Err(err)
			sp.End()
			if err != nil {
				return sweepCell{}, err
			}
			if key, kerr := runner.Key(cell.art.Slug, cell.p); kerr == nil {
				_ = ckpt.MarkDone(cell.id, key)
			}
			return sweepCell{raw: raw, hit: hit}, nil
		})
	}
	results, err := runner.Map(jobCtx, tasks)

	failed := map[int]error{}
	var me *runner.MultiError
	if errors.As(err, &me) {
		for _, f := range me.Failures {
			failed[f.Index] = f
		}
	} else if err != nil {
		// Whole-pool failure (e.g. the request was canceled before partial
		// results could be collected): every cell shares the error.
		for i := range cells {
			failed[i] = err
		}
	}
	lines := make([]sweepLine, len(cells))
	var hits, misses uint64
	for i, cell := range cells {
		line := sweepLine{Experiment: cell.art.Slug}
		if cell.seeded {
			line.Cell = cell.id
		}
		if ferr, ok := failed[i]; ok {
			line.Error = ferr.Error()
			lines[i] = line
			continue
		}
		if i < len(results) {
			line.Result = results[i].raw
			lines[i] = line
			if results[i].hit {
				hits++
			} else {
				misses++
			}
		}
	}
	if err == nil && ckpt != nil && len(failed) == 0 {
		// Complete: nothing left to resume.
		_ = ckpt.Remove()
	}
	return lines, hits, misses, err
}
