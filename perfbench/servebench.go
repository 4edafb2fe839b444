package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"credo/internal/core"
	"credo/internal/gpusim"
	"credo/internal/graph"
	"credo/internal/mtxbp"
	"credo/internal/serve"
)

// runServe executes serve-drift or serve-churn: inputs, oracle read,
// set-up (repeated, median reported), the open-loop phase at the fixed
// offered rate, the closed-loop capacity phase, the churn mirror
// queries, teardown, and then every check and metric off the clock.
func runServe(ctx context.Context, o runOpts, dir string, rep *report) (err error) {
	sz := o.sz
	in, err := genServeInputs(o.workload, o.seed, sz, o.seconds, o.rate(), dir)
	if err != nil {
		return err
	}
	tracing := &atomic.Bool{}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		tracing.Store(true)
	}

	// The oracle base: the benchmark's own read of the served pair. It
	// also measures the mtxbp layer LoadFiles goes through.
	t0 := time.Now()
	base, err := mtxbp.ReadParallel(in.nodesPath, in.edgesPath, mtxbp.ReadOptions{})
	if err != nil {
		return err
	}
	readMs := msSince(t0)
	selMs := selectMs(base)

	// Set-up: LoadFiles, listener up, first cold query answered.
	var srv *server
	defer func() {
		if cerr := srv.close(); cerr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	var setups []float64
	for i := 0; i < sz.SetupReps; i++ {
		if cerr := srv.close(); cerr != nil {
			return fmt.Errorf("teardown after set-up %d: %w", i, cerr)
		}
		settleHeap()
		t0 := time.Now()
		srv, err = startServer(in.nodesPath, in.edgesPath, o.trace, tracing)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		wo := newLoadgen(srv, in, tracing).query(ctx, &in.warmup, phaseCheck)
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted++
		if kind, err := checkOutcome(wo, base, in); kind != failNone {
			rep.fail(kind, "set-up query", err)
			return fmt.Errorf("set-up query: %w", err)
		}
	}

	// The memory high-water mark restarts past input generation and the
	// discarded set-ups, so the memory metrics cover the measured phases.
	settleHeap()
	resetPeakRSS()
	rss := sampleRSS(100 * time.Millisecond)
	lg := newLoadgen(srv, in, tracing)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	octx, cancel := context.WithTimeout(ctx, time.Duration(in.openSecs*float64(time.Second))+phaseSlack)
	ores, err := lg.openLoop(octx)
	cancel()
	if err != nil {
		rss.finish()
		return fmt.Errorf("open-loop phase: %w", err)
	}
	cctx, cancel := context.WithTimeout(ctx, time.Duration(in.closedSecs*float64(time.Second))+phaseSlack)
	var capacity, capUntraced, capTraced float64
	if o.trace {
		// Tracing overhead: the first half runs with the spans off, the
		// second with them on, on the same list and the same server.
		tracing.Store(false)
		capUntraced, err = lg.closedLoop(cctx, in.closedSecs/2)
		if err == nil {
			tracing.Store(true)
			capTraced, err = lg.closedLoop(cctx, in.closedSecs/2)
		}
		capacity = capTraced
	} else {
		capacity, err = lg.closedLoop(cctx, in.closedSecs)
	}
	cancel()
	rssMedian := rss.finish()
	if err != nil {
		return fmt.Errorf("closed-loop phase: %w", err)
	}
	runtime.ReadMemStats(&ms1)

	// Quiesced: every update has been answered; the mirror replays the
	// applied stream and a few fresh queries are compared against it.
	for i := range in.mirror {
		lg.query(ctx, &in.mirror[i], phaseCheck)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	peak := peakRSSMB()
	if cerr := srv.close(); cerr != nil {
		return fmt.Errorf("teardown: %w", cerr)
	}

	// Everything below is off the clock.
	a := newServeAnalysis(o, in, base, rec, srv.times, rep)
	var mirrorErr error
	if in.workload == "serve-churn" {
		mirrorErr = applyStream(base, in.updates, appliedOps(lg.outs, lg.nextUpdate))
	}
	// In send order, so the failure notes name the first failures.
	sort.Slice(lg.outs, func(i, j int) bool { return lg.outs[i].id < lg.outs[j].id })
	for _, out := range lg.outs {
		a.add(out, mirrorErr)
	}
	a.finish(ores, capacity)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["rss_p50_mb"] = rssMedian
	rep.linef("  rss_p50_mb        %10.4f MB   median resident set over the measured phases (peak_rss_mb, VmHWM, %.4f MB)", rssMedian, peak)

	ops := float64(a.okTimed)
	rep.layer("mtxbp.read_ms", readMs, "ms", "setup_s on serve-*, latency_p50_ms (time_to_beliefs) on ingest-solve")
	rep.layer("mtxbp.mb_s", float64(in.fileBytes)/1e6/(readMs/1e3), "MB/s", "setup_s on serve-*")
	rep.layer("core.select_ms", selMs, "ms", "latency_p50_ms (time_to_beliefs) on ingest-solve")
	rep.layer("runtime.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/max(ops, 1), "MB", "query_tail_ms (report) and rss_p50_mb")
	rep.layer("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count", "query_tail_ms (report) and rss_p50_mb")
	if o.trace {
		rep.layer("trace.overhead_pct", 100*(capUntraced-capTraced)/capUntraced, "%", "(none: tracing cost, closed-loop capacity traced vs untraced)")
		rep.linef("tracing overhead: closed-loop capacity %.4g req/s untraced, %.4g req/s traced (traced minus untraced = %+.4g req/s)",
			capUntraced, capTraced, capTraced-capUntraced)
		path := spansPath(o)
		if err := rec.write(path); err != nil {
			return err
		}
		rep.linef("spans: %d written to %s", len(rec.spans), path)
	}
	return nil
}

// selectMs times the daemon selector's choice on g's metadata, the
// median of three.
func selectMs(g *graph.Graph) float64 {
	sel := core.Selector{GPU: gpusim.Pascal(), DisableCUDA: true}
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sel.Choose(g.Stats(), g.MemoryFootprint())
		ts = append(ts, msSince(t0))
	}
	return median(ts)
}

// appliedOps reads, for each of the first sent updates of the stream,
// how many of its ops the server applied: all of a 200, the applied
// prefix of a batch rejected mid-way, none of a 429 or a decode error.
// -1 marks an update whose outcome is unknown (a transport error or an
// unreadable body).
func appliedOps(outs []*outcome, sent int) []int {
	applied := make([]int, sent)
	for i := range applied {
		applied[i] = -1
	}
	for _, o := range outs {
		if !o.isUpdate || o.err != nil {
			continue
		}
		if r, err := parseUpdate(o.body); err == nil {
			applied[o.q] = r.Applied
		}
	}
	return applied
}

// applyStream replays what the server applied of the update stream onto
// the mirror in generation order, draining the delta frontier after
// every update as the server's update path does.
func applyStream(mirror *graph.Graph, ups []update, applied []int) error {
	for i, n := range applied {
		if n < 0 || n > len(ups[i].muts) {
			return fmt.Errorf("mirror: update %d has no known outcome", i)
		}
		for _, m := range ups[i].muts[:n] {
			if err := m.Apply(mirror); err != nil {
				return fmt.Errorf("mirror: update %d: %w", i, err)
			}
		}
		mirror.TakeDeltaSeeds()
	}
	return nil
}

// checkOutcome runs the transport and shape checks on one query outcome.
func checkOutcome(o *outcome, base *graph.Graph, in *serveInputs) (failKind, error) {
	if kind, err := transportFailure(o); kind != failNone {
		return kind, err
	}
	r, err := parseQuery(o.body)
	if err == nil {
		err = checkAnswer(o.qry, base.NumNodes, base.States, r)
	}
	if err != nil {
		return failWrong, err
	}
	return failNone, nil
}

// serveAnalysis folds the outcomes of a serve run into checks and
// metrics.
type serveAnalysis struct {
	o    runOpts
	in   *serveInputs
	base *graph.Graph
	rec  *recorder
	ht   *handlerTimes
	rep  *report

	queryLat, updateLat          []float64 // open loop, ms
	wall, iters, upds, edges     []float64 // per query
	nsPerEdgeState, respKB       []float64
	warmRatio, fixDist, coldDist []float64
	httpSelf, queueMs, runMs     []float64 // traced queries, ms
	httpFrac, queueFrac, runFrac []float64
	updRunMs, updWaitMs          []float64 // traced updates, ms
	updRunFrac, updWaitFrac      []float64
	queries, warm, batched, shed int
	requests                     int
	updates, updWarm, updStruct  int
	okTimed                      int
}

func newServeAnalysis(o runOpts, in *serveInputs, base *graph.Graph, rec *recorder, ht *handlerTimes, rep *report) *serveAnalysis {
	return &serveAnalysis{o: o, in: in, base: base, rec: rec, ht: ht, rep: rep}
}

func (a *serveAnalysis) add(o *outcome, mirrorErr error) {
	rep := a.rep
	rep.attempted++
	timed := o.phase != phaseCheck
	if timed {
		a.requests++
	}
	what := fmt.Sprintf("request %d (phase %d)", o.id, o.phase)
	kind, err := transportFailure(o)
	if kind == failShed && timed {
		a.shed++
	}
	if kind != failNone {
		rep.fail(kind, what, err)
		return
	}
	lat := float64(o.latency()) / 1e6
	hs, traced := a.handlerSpan(o)

	if o.isUpdate {
		u := &a.in.updates[o.q]
		r, err := checkUpdate(u, o.body)
		if err != nil {
			rep.fail(failWrong, what, err)
			return
		}
		a.okTimed++
		a.updates++
		if r.Warm {
			a.updWarm++
		}
		if r.Structural {
			a.updStruct++
		}
		if o.phase == phaseOpen {
			a.updateLat = append(a.updateLat, lat)
		}
		if traced {
			rt := o.done.Sub(o.sent)
			hdur := hs[1].Sub(hs[0])
			run := time.Duration(r.WallNs)
			a.spans(o, "client.update", "handler.update", "serve.update", hs, run)
			a.updRunMs = append(a.updRunMs, float64(run)/1e6)
			a.updWaitMs = append(a.updWaitMs, float64(hdur-run)/1e6)
			a.updRunFrac = append(a.updRunFrac, float64(run)/float64(rt))
			a.updWaitFrac = append(a.updWaitFrac, float64(hdur-run)/float64(rt))
		}
		return
	}

	r, err := parseQuery(o.body)
	if err == nil {
		err = checkAnswer(o.qry, a.base.NumNodes, a.base.States, r)
	}
	if err == nil && o.qry.checked {
		// The drift oracle sample, or a churn mirror query: quiesced,
		// against the mirror with every applied mutation.
		var ratio *[]float64
		if o.phase == phaseCheck {
			err = mirrorErr
		} else {
			ratio = &a.warmRatio
		}
		if err == nil {
			err = a.compare(o.qry, r, ratio)
		}
	}
	if err != nil {
		rep.fail(failWrong, what, err)
		return
	}
	if !timed {
		return
	}
	a.okTimed++
	a.queries++
	if r.Warm {
		a.warm++
	}
	if r.Engine == "batch" {
		a.batched++
	}
	if o.phase == phaseOpen {
		a.queryLat = append(a.queryLat, lat)
	}
	a.wall = append(a.wall, float64(r.WallNs)/1e6)
	a.iters = append(a.iters, float64(r.Iterations))
	a.upds = append(a.upds, float64(r.Updates))
	a.edges = append(a.edges, float64(r.Edges))
	if r.Edges > 0 {
		a.nsPerEdgeState = append(a.nsPerEdgeState, float64(r.WallNs)/float64(r.Edges*int64(a.base.States)))
	}
	a.respKB = append(a.respKB, float64(len(o.body))/1e3)
	if traced {
		rt := o.done.Sub(o.sent)
		hdur := hs[1].Sub(hs[0])
		run := time.Duration(r.WallNs)
		a.spans(o, "client", "handler", "serve.run", hs, run)
		a.httpSelf = append(a.httpSelf, float64(rt-hdur)/1e6)
		a.queueMs = append(a.queueMs, float64(hdur-run)/1e6)
		a.runMs = append(a.runMs, float64(run)/1e6)
		a.httpFrac = append(a.httpFrac, float64(rt-hdur)/float64(rt))
		a.queueFrac = append(a.queueFrac, float64(hdur-run)/float64(rt))
		a.runFrac = append(a.runFrac, float64(run)/float64(rt))
	}
}

// compare checks the full-posterior answer r to q on the oracle base
// (the churn mirror, once the stream is applied): r must be a BP
// fixpoint of q's evidence (checkFixpoint). A cold bp.RunNode solve of
// the same evidence gives the answer's distance to a cold start, which
// is reported, not bounded: a warm answer may sit in another fixpoint.
// ratio, when non-nil, collects the wasted-work ratio of warm answers.
func (a *serveAnalysis) compare(q *query, r *serve.Response, ratio *[]float64) error {
	d, err := checkFixpoint(a.base, q, r)
	a.fixDist = append(a.fixDist, d)
	if err != nil {
		return err
	}
	og, res, err := oracleSolve(a.base, q)
	if err != nil {
		return err
	}
	served, err := servedBeliefs(a.base, r)
	if err != nil {
		return err
	}
	a.coldDist = append(a.coldDist, beliefDist(served, og.Beliefs))
	if ratio != nil && r.Warm && res.Ops.NodesProcessed > 0 {
		*ratio = append(*ratio, float64(r.Updates)/float64(res.Ops.NodesProcessed))
	}
	return nil
}

// handlerSpan returns the middleware's handler interval for a traced
// request.
func (a *serveAnalysis) handlerSpan(o *outcome) ([2]time.Time, bool) {
	if a.ht == nil || !o.traced {
		return [2]time.Time{}, false
	}
	return a.ht.lookup(o.id)
}

// spans records the three spans of a traced request: the client round
// trip, the handler interval inside it, and the server's own run time
// (the response's wall_ns; its length is measured, its placement at the
// end of the handler is nominal).
func (a *serveAnalysis) spans(o *outcome, client, handler, run string, hs [2]time.Time, wall time.Duration) {
	a.rec.add(o.id, client, "", o.sent, o.done)
	a.rec.add(o.id, handler, client, hs[0], hs[1])
	a.rec.add(o.id, run, handler, hs[1].Add(-wall), hs[1])
}

// finish turns the collected samples into metrics and validity verdicts.
func (a *serveAnalysis) finish(ores openResult, capacity float64) {
	rep, in, sz := a.rep, a.in, a.o.sz
	churn := in.workload == "serve-churn"
	expQ := int(in.rate * in.openSecs * (1 - updateFracOf(in.workload, sz)))
	p := tailPercentile(expQ)
	rep.e2e["latency_p50_ms"] = median(a.queryLat)
	rep.e2e["capacity_ops_s"] = capacity

	rep.linef("end-to-end (untraced run reports these; traced runs report the per-layer set):")
	rep.linef("  query_p50_ms      %10.4f ms   open loop, %d queries", median(a.queryLat), len(a.queryLat))
	rep.linef("  query_tail_ms     %10.4f ms   p%g of %d queries (%d beyond it)", quantile(a.queryLat, p/100), p, len(a.queryLat), beyond(a.queryLat, p))
	if churn {
		up := tailPercentile(int(in.rate * in.openSecs * sz.ChurnUpdateFrac))
		rep.linef("  update_p50_ms     %10.4f ms   open loop, %d updates", median(a.updateLat), len(a.updateLat))
		rep.linef("  update_tail_ms    %10.4f ms   p%g of %d updates (%d beyond it)", quantile(a.updateLat, up/100), up, len(a.updateLat), beyond(a.updateLat, up))
	}
	rep.linef("  capacity_qps      %10.4f req/s closed loop, %d clients", capacity, runtime.GOMAXPROCS(0))

	late95 := quantile(ores.lateMs, 0.95)
	backlogBound := max(sz.BacklogMin, int(sz.BacklogShare*float64(len(in.open))))
	rep.linef("  loadgen.late_ms   p50 %.4f  p95 %.4f  max %.4f (bound: p95 <= %g ms); backlog at schedule end %d (bound %d)",
		median(ores.lateMs), late95, quantile(ores.lateMs, 1), sz.LateBoundMs, ores.backlog, backlogBound)
	if late95 > sz.LateBoundMs {
		rep.invalid = append(rep.invalid, fmt.Sprintf("load generator ran late: p95 %.3f ms > %g ms", late95, sz.LateBoundMs))
	}
	if ores.backlog > backlogBound {
		rep.invalid = append(rep.invalid, fmt.Sprintf("open-loop backlog %d > %d at schedule end", ores.backlog, backlogBound))
	}
	if len(a.fixDist) > 0 {
		other := 0
		for _, d := range a.coldDist {
			if d > serve.WarmTol {
				other++
			}
		}
		rep.linef("  oracle checks: %d full answers, BP re-converged from each moved it at most %.3g (bound serve.WarmTol %g); L-inf to a cold RunNode start: max %.3g, %d in another fixpoint",
			len(a.fixDist), quantile(a.fixDist, 1), serve.WarmTol, quantile(a.coldDist, 1), other)
	}

	q := float64(max(a.queries, 1))
	reqs := float64(max(a.requests, 1))
	p50 := "latency_p50_ms (query_p50_ms)"
	tail := "query_tail_ms (report) and capacity_ops_s on serve-*"
	rep.layer("http.resp_kb", median(a.respKB), "kB", p50+" on serve-churn; light: serve-drift")
	rep.layer("serve.shed_frac", float64(a.shed)/reqs, "ratio", tail+"; fail_frac")
	rep.layer("serve.warm_frac", float64(a.warm)/q, "ratio", p50+" on serve-drift; light: serve-churn")
	rep.layer("serve.batched_frac", float64(a.batched)/q, "ratio", p50+" on serve-drift; light: serve-churn")
	rep.layer("engine.warm_update_ratio", medianOr0(a.warmRatio), "ratio", p50+" on serve-drift; light: serve-churn")
	rep.layer("engine.run_ms", median(a.wall), "ms", p50+" on serve-*; latency_p50_ms (time_to_beliefs) on ingest-solve")
	rep.layer("engine.iterations", median(a.iters), "count", p50+" on serve-*")
	rep.layer("engine.updates", median(a.upds), "count", p50+" on serve-*")
	rep.layer("engine.edges", median(a.edges), "count", p50+" on serve-*")
	rep.layer("kernel.ns_per_edge_state", median(a.nsPerEdgeState), "ns", "latency_p50_ms (time_to_beliefs) on ingest-solve; light: serve-drift")
	rep.layer("loadgen.late_ms", quantile(ores.lateMs, 0.95), "ms", "(validity check, not a target)")
	if a.rec != nil {
		rep.layer("http.self_ms", medianOr0(a.httpSelf), "ms", p50+" on serve-churn; light: serve-drift")
		rep.layer("http.self_frac", medianOr0(a.httpFrac), "ratio", p50+" on serve-churn; light: serve-drift")
		rep.layer("serve.queue_ms", medianOr0(a.queueMs), "ms", tail)
		rep.layer("serve.queue_frac", medianOr0(a.queueFrac), "ratio", tail)
		rep.layer("serve.run_ms", medianOr0(a.runMs), "ms", p50+" on serve-*")
		rep.layer("serve.run_frac", medianOr0(a.runFrac), "ratio", p50+" on serve-*")
		self := a.rec.selfTimes()
		rep.linef("span self times (median ms): client %.4g, handler %.4g, serve.run %.4g",
			medianOr0(self["client"]), medianOr0(self["handler"]), medianOr0(self["serve.run"]))
	}
	if churn {
		u := float64(max(a.updates, 1))
		moves := "update_p50_ms/update_tail_ms and query_tail_ms (report) on serve-churn"
		rep.layer("serve.update_warm_frac", float64(a.updWarm)/u, "ratio", moves)
		rep.layer("serve.update_structural_frac", float64(a.updStruct)/u, "ratio", moves)
		if a.rec != nil {
			rep.layer("serve.update_run_ms", medianOr0(a.updRunMs), "ms", moves)
			rep.layer("serve.update_wait_ms", medianOr0(a.updWaitMs), "ms", moves)
			rep.layer("serve.update_run_frac", medianOr0(a.updRunFrac), "ratio", moves)
			rep.layer("serve.update_wait_frac", medianOr0(a.updWaitFrac), "ratio", moves)
		}
	}
}

func updateFracOf(workload string, sz sizes) float64 {
	if workload == "serve-churn" {
		return sz.ChurnUpdateFrac
	}
	return 0
}

// beyond counts the samples strictly above the p-th percentile.
func beyond(xs []float64, p float64) int {
	cut := quantile(xs, p/100)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
