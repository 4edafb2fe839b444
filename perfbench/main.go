// Command perfbench is the repository benchmark. It runs one seeded
// workload in-process and prints a human-readable report followed by one
// JSON result line:
//
//	serve-drift   open-loop Poisson queries against one resident 5k-node
//	              power-law graph, each the previous evidence set with
//	              ~0.1% of nodes toggled (the warm-start and batcher path)
//	serve-churn   the same graph under independent 6%-evidence queries
//	              (full posterior) and /v1/update batches from one writer
//	ingest-solve  mtxbp.ReadParallel of a 200k-node .mtx pair, then
//	              core.Engine selection and a run to convergence
//
// The serving layer is serve.New with credoserved's flag defaults behind
// Server.Handler() on a 127.0.0.1:0 listener, so the HTTP and JSON path
// is real and no child process exists. Usage:
//
//	perfbench --workload serve-drift --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (with the benchmark's spans switched on). See README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// buildDir is the checkout-local directory for build outputs, scratch
// inputs and span files; nothing is read or written outside the
// checkout.
const buildDir = ".bench_build"

// runDeadline bounds a whole run: a wedged phase fails the run instead
// of hanging it.
const runDeadline = 170 * time.Second

// Exit codes besides 0 (a result was printed).
const (
	exitError       = 1 // a phase, check set-up or teardown failed
	exitUsage       = 2
	exitInvalid     = 3 // a validity guard tripped: no result
	exitInterrupted = 130
)

// runOpts is one invocation.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	driftQPS float64
	churnRPS float64
	sz       sizes
	dir      string // checkout-local scratch root
}

// rate is the fixed open-loop offered rate of the workload.
func (o runOpts) rate() float64 {
	if o.workload == "serve-churn" {
		return o.churnRPS
	}
	return o.driftQPS
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := runOpts{sz: fullSizes, dir: buildDir}
	fs.StringVar(&o.workload, "workload", "", "serve-drift, serve-churn or ingest-solve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives byte-identical inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 switches the benchmark's spans on and reports the per-layer metrics")
	fs.Float64Var(&o.driftQPS, "drift-qps", 6, "serve-drift open-loop offered rate (queries/s)")
	fs.Float64Var(&o.churnRPS, "churn-rps", 3, "serve-churn open-loop offered rate (requests/s)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	o.trace = *trace == 1
	switch {
	case o.workload != "serve-drift" && o.workload != "serve-churn" && o.workload != "ingest-solve":
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", o.workload)
		return exitUsage
	case *trace != 0 && *trace != 1, o.seconds <= 0, o.rate() <= 0 && o.workload != "ingest-solve":
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1, --seconds and the rates positive")
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	rep, err := execute(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if errors.Is(ctx.Err(), context.Canceled) {
			return exitInterrupted
		}
		return exitError
	}
	if len(rep.invalid) > 0 {
		for _, l := range rep.lines {
			fmt.Fprintln(stderr, l)
		}
		for _, v := range rep.invalid {
			fmt.Fprintln(stderr, "perfbench: INVALID run:", v)
		}
		return exitInvalid
	}
	res, err := rep.result(o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitError
	}
	if err := rep.print(stdout, res, o.trace); err != nil {
		return exitError
	}
	return 0
}

// execute runs the workload inside a fresh scratch directory and removes
// it on every exit path.
func execute(ctx context.Context, o runOpts) (rep *report, err error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = fmt.Errorf("remove %s: %w", dir, rerr)
		}
	}()
	rep = newReport()
	rep.header = []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%t", o.workload, o.seed, o.seconds, o.trace),
		fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
	}
	if o.workload == "ingest-solve" {
		err = runIngest(ctx, o, dir, rep)
	} else {
		open, closed := phaseSecs(o.sz, o.seconds)
		rep.header = append(rep.header, fmt.Sprintf("offered rate %g req/s for %.4g s open loop, then %d closed-loop clients for %.4g s",
			o.rate(), open, runtime.GOMAXPROCS(0), closed))
		err = runServe(ctx, o, dir, rep)
	}
	if err == nil {
		err = ctx.Err()
	}
	return rep, err
}

// spansPath is where a traced run writes its spans, inside the build
// directory so the checkout stays the only place written.
func spansPath(o runOpts) string {
	return filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}
