package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"credo/internal/bp"
	"credo/internal/core"
	"credo/internal/gpusim"
	"credo/internal/graph"
	"credo/internal/mtxbp"
	"credo/internal/serve"
)

// solveStats is one ingest-solve repetition: file paths to converged
// beliefs, split by layer.
type solveStats struct {
	read, sel, run, verify time.Duration
	impl                   core.Implementation
	res                    bp.Result
}

// toBeliefs is the time from file paths to converged beliefs in memory;
// verification is excluded.
func (s solveStats) toBeliefs() time.Duration { return s.read + s.sel + s.run }

// ingestEngine is core.Engine with the daemon's CPU-only selector and a
// pool team of GOMAXPROCS workers.
func ingestEngine() *core.Engine {
	return &core.Engine{
		Selector: core.Selector{GPU: gpusim.Pascal(), DisableCUDA: true, PoolWorkers: runtime.GOMAXPROCS(0)},
		Options:  oracleOptions(),
	}
}

// mtxTol bounds how far a value read back from the .mtx pair may sit
// from the generated one: the writer keeps 7 significant digits.
const mtxTol = 1e-6

// solve runs one repetition and verifies it: the parallel ingest must be
// bit-identical to the sequential reader's parse of the same pair and
// match the generated graph (topology exactly, values to the writer's 7
// digits), and the converged beliefs must sit within serve.WarmTol of
// the sequential reference solve.
func solve(eng *core.Engine, in *ingestInputs, ref *graph.Graph, id int64, rec *recorder) (solveStats, error) {
	var st solveStats
	t0 := time.Now()
	g, err := mtxbp.ReadParallel(in.nodesPath, in.edgesPath, mtxbp.ReadOptions{})
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	// The footprint only feeds the CUDA rule, which this selector has
	// off; core.Engine.Run makes the same call with a device estimate.
	st.impl = eng.Choose(g.Stats(), g.MemoryFootprint())
	t2 := time.Now()
	rp, err := eng.RunWith(g, st.impl)
	t3 := time.Now()
	if err == nil {
		st.res = rp.Result
		err = verifySolve(in.g, ref, g, rp.Result)
	}
	t4 := time.Now()
	st.read, st.sel, st.run, st.verify = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	rec.add(id, "solve", "", t0, t4)
	rec.add(id, "mtxbp.read", "solve", t0, t1)
	rec.add(id, "core.select", "solve", t1, t2)
	rec.add(id, "engine.run", "solve", t2, t3)
	rec.add(id, "verify", "solve", t3, t4)
	return st, err
}

func verifySolve(want, ref, got *graph.Graph, res bp.Result) error {
	if !res.Converged {
		return fmt.Errorf("converged:false after %d iterations", res.Iterations)
	}
	if err := sameInput(ref, got, 0); err != nil {
		return fmt.Errorf("parallel ingest differs from the sequential parse: %w", err)
	}
	if err := sameInput(want, got, mtxTol); err != nil {
		return fmt.Errorf("ingested graph differs from the generated one: %w", err)
	}
	if d := maxBeliefDiff(ref, got); d > serve.WarmTol {
		return fmt.Errorf("beliefs are %.4g from the sequential reference, past %.4g", d, serve.WarmTol)
	}
	return nil
}

// runIngest executes ingest-solve: inputs and the sequential reference
// off the clock, IngestSetups untimed solves as set-up, then timed solves for
// --seconds (at least MinSolves).
func runIngest(ctx context.Context, o runOpts, dir string, rep *report) error {
	in, err := genIngestInputs(o.sz, dir)
	if err != nil {
		return err
	}
	ref, err := mtxbp.ReadFiles(in.nodesPath, in.edgesPath)
	if err != nil {
		return err
	}
	if res := bp.RunNode(ref, oracleOptions()); !res.Converged {
		return fmt.Errorf("sequential reference did not converge in %d iterations", res.Iterations)
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	eng := ingestEngine()

	// Set-up: the first, untimed solves, each timed from file paths to
	// beliefs (verification excluded); the median is reported. The
	// memory high-water mark restarts here, past input generation and
	// the reference.
	settleHeap()
	resetPeakRSS()
	var st solveStats
	var setups []float64
	for i := 0; i < o.sz.IngestSetups; i++ {
		if i > 0 {
			settleHeap()
		}
		rep.attempted++
		st, err = solve(eng, in, ref, 0, nil)
		if err != nil {
			rep.fail(failWrong, "set-up solve", err)
			return fmt.Errorf("set-up solve: %w", err)
		}
		setups = append(setups, st.toBeliefs().Seconds())
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var stats []solveStats
	var traced, untraced []float64
	rss := sampleRSS(100 * time.Millisecond)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	// A solve starts only when the last one's length still fits before
	// the deadline, so the window stays near --seconds.
	next := st.toBeliefs() + st.verify
	for id := int64(1); len(stats) < o.sz.MinSolves || time.Now().Add(next).Before(deadline); id++ {
		if err := ctx.Err(); err != nil {
			rss.finish()
			return err
		}
		// A traced run alternates traced and untraced solves, which
		// gives the tracing overhead.
		r := rec
		if id%2 == 0 {
			r = nil
		}
		// Each solve starts from a collected heap, as a fresh batch
		// process would, so one solve's garbage is not the next one's GC
		// work.
		settleHeap()
		rep.attempted++
		st, err := solve(eng, in, ref, id, r)
		if err != nil {
			rep.fail(failWrong, fmt.Sprintf("solve %d", id), err)
			continue
		}
		stats = append(stats, st)
		next = st.toBeliefs() + st.verify
		if r != nil {
			traced = append(traced, st.toBeliefs().Seconds())
		} else {
			untraced = append(untraced, st.toBeliefs().Seconds())
		}
	}
	window := time.Since(start)
	rssMedian := rss.finish()
	peak := peakRSSMB()
	runtime.ReadMemStats(&ms1)
	if len(stats) == 0 {
		return fmt.Errorf("no solve succeeded")
	}

	var ttb, read, sel, run, iters, upds, edges, nsPer []float64
	busy := 0.0
	for _, s := range stats {
		ttb = append(ttb, s.toBeliefs().Seconds())
		busy += s.toBeliefs().Seconds()
		read = append(read, float64(s.read)/1e6)
		sel = append(sel, float64(s.sel)/1e6)
		run = append(run, float64(s.run)/1e6)
		iters = append(iters, float64(s.res.Iterations))
		upds = append(upds, float64(s.res.Ops.NodesProcessed))
		edges = append(edges, float64(s.res.Ops.EdgesProcessed))
		if s.res.Ops.EdgesProcessed > 0 {
			nsPer = append(nsPer, float64(s.run)/float64(s.res.Ops.EdgesProcessed*int64(in.g.States)))
		}
	}
	// Capacity counts the solves' own time only: the heap settling and
	// the verification between solves are the benchmark's work.
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["latency_p50_ms"] = median(ttb) * 1e3
	rep.e2e["capacity_ops_s"] = float64(len(stats)) / busy
	rep.e2e["rss_p50_mb"] = rssMedian

	rep.linef("end-to-end (untraced run reports these; traced runs report the per-layer set):")
	rep.linef("  time_to_beliefs_s %10.4f s    median of %d timed solves (slowest %.4f s) in a %.4g s window", median(ttb), len(ttb), quantile(ttb, 1), window.Seconds())
	rep.linef("  rss_p50_mb        %10.4f MB   median resident set over the timed solves (peak_rss_mb, VmHWM, %.4f MB)", rssMedian, peak)
	rep.linef("  implementation    %s (set-up solve chose %s)", stats[0].impl, st.impl)

	moves := "latency_p50_ms (time_to_beliefs) on ingest-solve"
	rep.layer("mtxbp.read_ms", median(read), "ms", moves+"; setup_s on serve-*")
	rep.layer("mtxbp.mb_s", float64(in.fileBytes)/1e6/(median(read)/1e3), "MB/s", moves+"; setup_s on serve-*")
	rep.layer("core.select_ms", median(sel), "ms", moves)
	rep.layer("engine.run_ms", median(run), "ms", moves+"; light: serve-drift")
	rep.layer("engine.run_s", median(run)/1e3, "s", moves+"; light: serve-drift")
	rep.layer("engine.iterations", median(iters), "count", moves)
	rep.layer("engine.updates", median(upds), "count", moves)
	rep.layer("engine.edges", median(edges), "count", moves)
	rep.layer("kernel.ns_per_edge_state", median(nsPer), "ns", moves+"; light: serve-drift")
	rep.layer("runtime.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(len(stats)), "MB", "query_tail_ms (report) and rss_p50_mb")
	rep.layer("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count", "query_tail_ms (report) and rss_p50_mb")
	if o.trace {
		over := 100 * (median(traced) - median(untraced)) / median(untraced)
		rep.layer("trace.overhead_pct", over, "%", "(none: tracing cost, traced vs untraced solves)")
		rep.linef("tracing overhead: time to beliefs %.4f s traced, %.4f s untraced (traced minus untraced = %+.4f s)",
			median(traced), median(untraced), median(traced)-median(untraced))
		self := rec.selfTimes()
		rep.linef("span self times (median ms): solve %.4g, mtxbp.read %.4g, core.select %.4g, engine.run %.4g, verify %.4g",
			medianOr0(self["solve"]), medianOr0(self["mtxbp.read"]), medianOr0(self["core.select"]),
			medianOr0(self["engine.run"]), medianOr0(self["verify"]))
		path := spansPath(o)
		if err := rec.write(path); err != nil {
			return err
		}
		rep.linef("spans: %d written to %s", len(rec.spans), path)
	}
	return nil
}
