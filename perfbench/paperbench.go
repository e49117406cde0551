package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// pbFigures are the experiments the paperbench-quick workload runs.
var pbFigures = []string{"fig2", "fig3", "fig6"}

// pbGolden is paperbench's committed Figure 2 table at -quick and the
// default seed, relative to the repository root. It is only read.
const pbGolden = "cmd/paperbench/testdata/fig2_quick.golden"

// pbSession runs paperbench processes, one at a time: paperbench fans
// out over every core itself, so one process is the closed loop.
type pbSession struct {
	env    *runEnv
	golden []byte   // the committed Figure 2 table
	warm   []string // paperbench args whose results are all cached
	seed   uint64
	rss    float64 // largest peak RSS of any measured run
	runs   int
	parent int    // span the runs' spans hang under (0: roots)
	stdout []byte // the first measured run's tables; later runs must match
}

// startPaperbench checks Figure 2 against the golden table at the
// default seed on a cold cache, which leaves that cache warm for setup.
func startPaperbench(ctx context.Context, env *runEnv) (session, error) {
	golden, err := os.ReadFile(filepath.Join(env.opt.root, pbGolden))
	if err != nil {
		return nil, fmt.Errorf("reading the golden Figure 2 table: %w", err)
	}
	dir, err := env.subdir("pb-golden-")
	if err != nil {
		return nil, err
	}
	args := []string{"-quick", "-experiment", "fig2",
		"-cachedir", filepath.Join(dir, "cache"), "-checkpointdir", filepath.Join(dir, "checkpoint")}
	s := &pbSession{env: env, golden: golden, warm: args, seed: derive(env.opt.seed, "paperbench", 0)%1_000_000_000 + 1}
	if _, err := s.setup(ctx, 1); err != nil {
		return nil, err
	}
	return s, nil
}

// setup times launch-until-exit of the golden Figure 2 command against
// its warm cache: paperbench's start-up with every result cached. Each
// launch must still print the golden table.
func (s *pbSession) setup(ctx context.Context, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		r, err := runPaperbench(ctx, s.env, s.warm)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.env.chk.expect("paperbench exits 0", err == nil, "%v: %s", err, r.stderr)
		s.env.chk.expect("paperbench Figure 2 at the default seed equals "+pbGolden, bytes.Equal(r.stdout, s.golden),
			"printed:\n%s", r.stdout)
		out = append(out, r.took.Seconds())
	}
	return out, nil
}

// pbRun is one finished paperbench process.
type pbRun struct {
	stdout, stderr []byte
	start          time.Time
	took           time.Duration
	rssMB          float64
	figs           []figDone
}

// figDone is a figure's "(figN in Xs)" stderr line and when it arrived.
type figDone struct {
	name string
	at   time.Time
}

// pbTimeout cuts off a paperbench process that hangs, so a run still
// ends well inside the benchmark's time limit; a quick run takes seconds.
const pbTimeout = 2 * time.Minute

// runPaperbench runs paperbench to completion. A non-zero exit, or a run
// past pbTimeout, is err.
func runPaperbench(ctx context.Context, env *runEnv, args []string) (pbRun, error) {
	ctx, cancel := context.WithTimeout(ctx, pbTimeout)
	defer cancel()
	var out bytes.Buffer
	errOut := &figWatcher{}
	cmd := exec.CommandContext(ctx, filepath.Join(env.opt.bin, "paperbench"), args...)
	cmd.Stdout, cmd.Stderr = &out, errOut
	r := pbRun{start: time.Now()}
	err := cmd.Run()
	r.took = time.Since(r.start)
	r.stdout, r.stderr, r.figs, r.rssMB = out.Bytes(), errOut.buf.Bytes(), errOut.figs, peakRSSMB(cmd)
	return r, err
}

// figWatcher keeps paperbench's stderr and stamps each figure's timing
// line as it arrives. paperbench runs the figures one after another and
// prints each line as its figure ends, so the gaps between arrivals time
// the figures at full clock resolution (the lines themselves round to
// 0.1 s). exec copies stderr from one goroutine, so no lock is needed.
type figWatcher struct {
	buf     bytes.Buffer
	scanned int
	figs    []figDone
}

func (w *figWatcher) Write(p []byte) (int, error) {
	now := time.Now()
	w.buf.Write(p)
	for {
		rest := w.buf.Bytes()[w.scanned:]
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return len(p), nil
		}
		if m := figTime.FindSubmatch(rest[:i]); m != nil {
			w.figs = append(w.figs, figDone{name: string(m[1]), at: now})
		}
		w.scanned += i + 1
	}
}

// figTime matches paperbench's per-experiment timing line on stderr.
var figTime = regexp.MustCompile(`^\((fig\d+) in [0-9.]+s\)$`)

// traffic runs `paperbench -quick -experiment fig2,fig3,fig6 -seed S`
// with fresh cache and checkpoint directories, back to back, until the
// deadline has passed (at least once).
func (s *pbSession) traffic(ctx context.Context, secs float64, tr *tracer) (*phase, error) {
	chk := s.env.chk
	p := newPhase()
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		dir, err := s.env.subdir("pb-run-")
		if err != nil {
			return nil, err
		}
		args := append([]string{"-quick", "-experiment", strings.Join(pbFigures, ","),
			"-seed", strconv.FormatUint(s.seed, 10),
			"-cachedir", filepath.Join(dir, "cache"), "-checkpointdir", filepath.Join(dir, "checkpoint")},
			s.env.sc.pbArgs...)
		s.runs++
		r, err := runPaperbench(ctx, s.env, args)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		p.attempted++
		s.rss = max(s.rss, r.rssMB)
		if !chk.expect("paperbench exits 0", err == nil, "%v: %s", err, r.stderr) {
			p.failed++
			continue
		}
		chk.expect("paperbench prints the same tables on every run of one seed",
			s.stdout == nil || bytes.Equal(r.stdout, s.stdout), "run %d differs from the first", s.runs)
		if s.stdout == nil {
			s.stdout = r.stdout
		}
		for _, fig := range []string{"== Figure 2:", "== Figure 3:", "== Figure 6:"} {
			chk.expect("paperbench prints Figures 2, 3 and 6", bytes.Contains(r.stdout, []byte(fig)), "no %q table", fig)
		}
		chk.expect("paperbench times every figure", len(r.figs) == len(pbFigures), "stderr: %s", r.stderr)
		// Each figure's span runs from the previous figure's line (the
		// first from process start, so it also carries start-up).
		req := fmt.Sprintf("run-%d", s.runs)
		root := tr.record("exec.paperbench", req, s.parent, r.start, r.start.Add(r.took))
		from := r.start
		for _, f := range r.figs {
			p.figs[f.name] = append(p.figs[f.name], f.at.Sub(from).Seconds())
			tr.record("paperbench."+f.name, req, root, from, f.at)
			from = f.at
		}
		p.lat["paperbench"] = append(p.lat["paperbench"], float64(r.took)/1e6)
	}
	p.elapsed = time.Since(start)
	return p, nil
}

func (s *pbSession) counters(context.Context) (serviceCounters, error) {
	return serviceCounters{}, nil
}

// stop has nothing left running: every paperbench run was waited for.
func (s *pbSession) stop() (float64, error) { return s.rss, nil }
