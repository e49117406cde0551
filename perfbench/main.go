// Command perfbench is the repository's benchmark: it runs the real
// mctd and paperbench binaries under a closed-loop load it generates
// from its seed, checks their outputs, and reports end-to-end metrics
// (untraced runs) or per-layer metrics (traced runs).
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload spec-mix --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it name every
// metric with its unit. A run whose output checks fail prints its result
// with "correct": false and exits 1; a run that cannot measure at all
// (a build or boot failure) prints no result and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	bin      string // directory holding the mctd, paperbench and tracegen binaries
	work     string // build directory; each run makes its own temp dir inside
	out      string // report and span directory
	root     string // repository root
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: spec-mix, trace-upload or paperbench-quick")
	fs.Uint64Var(&opt.seed, "seed", 0, "seed every generated input derives from")
	fs.IntVar(&opt.seconds, "seconds", 10, "measurement length in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny inputs, for the benchmark's own tests")
	fs.StringVar(&opt.bin, "bin", ".bench_build/bin", "directory holding the built mctd, paperbench and tracegen")
	fs.StringVar(&opt.work, "work", ".bench_build", "directory for the run's temporary files")
	fs.StringVar(&opt.out, "out", "", "directory for the run report and spans (default <work>/perfbench-reports)")
	fs.StringVar(&opt.root, "root", ".", "repository root (for the paperbench golden file and the commit stamp)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(opt.workload)
	if !ok || fs.NArg() != 0 || opt.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	opt.trace = traceFlag == 1
	if opt.out == "" {
		opt.out = filepath.Join(opt.work, "perfbench-reports")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(opt.work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	env := &runEnv{opt: opt, sc: fullScale, dir: dir, chk: newChecks(), log: stderr}
	if opt.smoke {
		env.sc = smokeScale
	}
	if opt.trace {
		env.tr = newTracer()
	}
	stamp := stampEnv(opt.root)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d smoke=%v\n",
		opt.workload, opt.seed, opt.seconds, traceFlag, opt.smoke)
	fmt.Fprintf(stdout, "env: %s\n", stamp)

	start := time.Now()
	res, err := measure(ctx, w, env)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Stamp = stamp
	res.WallS = time.Since(start).Seconds()
	last := res.line(opt.trace)
	if err := writeReport(opt, res, env.tr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, res)

	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runEnv is what one run's workload code shares.
type runEnv struct {
	opt options
	sc  scale
	dir string  // this run's fresh temp dir, removed at exit
	chk *checks // output checks, failed ones make the run incorrect
	tr  *tracer // nil unless -trace 1
	log io.Writer
}

// subdir makes a fresh directory under the run's temp dir.
func (e *runEnv) subdir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix)
}

// logf prints a progress line to stderr.
func (e *runEnv) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

// measure runs one workload: set-up, then the untraced measurement, or,
// for a traced run, an untraced half, a traced half and the layer suite.
func measure(ctx context.Context, w *workloadDef, env *runEnv) (*result, error) {
	env.logf("%s: setting up", w.name)
	sess, err := w.start(ctx, env)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = sess.stop()
		}
	}()
	res := &result{Workload: w.name, Seed: env.opt.seed, Trace: env.opt.trace, Checks: env.chk}

	secs := float64(env.opt.seconds)
	if !env.opt.trace {
		// Set-up is sampled before and after the traffic, so one slow
		// moment of the machine does not set the median.
		setup, err := sess.setup(ctx, env.sc.boots/2)
		if err != nil {
			return nil, err
		}
		env.logf("%s: measuring for %ds", w.name, env.opt.seconds)
		ph, err := sess.traffic(ctx, secs, nil)
		if err != nil {
			return nil, err
		}
		if _, err := sess.counters(ctx); err != nil {
			return nil, err
		}
		rss, err := sess.stop()
		stopped = true
		if err != nil {
			return nil, err
		}
		more, err := sess.setup(ctx, env.sc.boots-env.sc.boots/2)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ph.attempted, ph.failed
		res.fillEndToEnd(w, append(setup, more...), ph, rss)
	} else {
		env.logf("%s: untraced half, %.1fs", w.name, secs/2)
		phA, err := sess.traffic(ctx, secs/2, nil)
		if err != nil {
			return nil, err
		}
		cnt, err := sess.counters(ctx)
		if err != nil {
			return nil, err
		}
		env.logf("%s: traced half, %.1fs", w.name, secs/2)
		phB, err := sess.traffic(ctx, secs/2, env.tr)
		if err != nil {
			return nil, err
		}
		if _, err := sess.stop(); err != nil {
			return nil, err
		}
		stopped = true
		overhead := median(phB.lat[w.block]) - median(phA.lat[w.block])
		phA.merge(phB)
		res.Attempted, res.Failed = phA.attempted, phA.failed
		env.logf("%s: layer suite", w.name)
		layers, err := layerSuite(ctx, env, cnt, phA.figs)
		if err != nil {
			return nil, err
		}
		layers["trace.overhead_ms"] = overhead
		res.Layers = layers
		res.SelfTimes = env.tr.selfTimes()
	}
	env.chk.expect("no request failed", res.Failed == 0, "%d of %d failed", res.Failed, res.Attempted)
	return res, nil
}
