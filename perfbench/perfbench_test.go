package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/serve"
)

// tinyOpts is a run of the tiny configuration in a test-owned directory.
func tinyOpts(t *testing.T, workload string, trace bool) runOpts {
	return runOpts{
		workload: workload, seed: 3, seconds: 1.5, trace: trace,
		driftQPS: 20, churnRPS: 20, sz: tinySizes, dir: t.TempDir(),
	}
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines remain, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertNoRunDirs checks that no per-run scratch directory is left.
func assertNoRunDirs(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("scratch directories left behind: %v", left)
	}
}

func TestTinyRunsPassAndTearDown(t *testing.T) {
	for _, wl := range []string{"serve-drift", "serve-churn", "ingest-solve"} {
		for _, trace := range []bool{false, true} {
			t.Run(wl+"/trace="+strconv.FormatBool(trace), func(t *testing.T) {
				base := runtime.NumGoroutine()
				o := tinyOpts(t, wl, trace)
				rep, err := execute(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failNotes)
				}
				res, err := rep.result(trace)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Fatalf("metric %s missing or with unit %q", d.name, m.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Fatalf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				settleGoroutines(t, base)
				assertNoRunDirs(t, o.dir)
			})
		}
	}
}

func TestServerCloseFreesPortAndGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	in, err := genServeInputs("serve-drift", 5, tinySizes, 1, 20, dir)
	if err != nil {
		t.Fatal(err)
	}
	var tracing atomic.Bool
	s, err := startServer(in.nodesPath, in.edgesPath, true, &tracing)
	if err != nil {
		t.Fatal(err)
	}
	lg := newLoadgen(s, in, &tracing)
	for i := 0; i < 4; i++ {
		if o := lg.query(context.Background(), &in.queries[i], phaseCheck); o.err != nil || o.status != 200 {
			t.Fatalf("query %d: status %d, %v", i, o.status, o.err)
		}
	}
	addr := s.addr
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port %s still held after teardown: %v", addr, err)
	}
	ln.Close()
}

func TestInterruptedRunTearsDown(t *testing.T) {
	for _, wl := range []string{"serve-churn", "ingest-solve"} {
		t.Run(wl, func(t *testing.T) {
			base := runtime.NumGoroutine()
			o := tinyOpts(t, wl, false)
			o.seconds = 30
			ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
			defer cancel()
			start := time.Now()
			if _, err := execute(ctx, o); err == nil {
				t.Fatal("interrupted run reported success")
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("interrupted run took %v to stop", d)
			}
			settleGoroutines(t, base)
			assertNoRunDirs(t, o.dir)
		})
	}
}

func TestInputsReplayable(t *testing.T) {
	digest := func(workload string, seed int64) string {
		t.Helper()
		dir := t.TempDir()
		var d string
		var err error
		if workload == "ingest-solve" {
			var in *ingestInputs
			if in, err = genIngestInputs(tinySizes, dir); err == nil {
				d, err = in.digest()
			}
		} else {
			var in *serveInputs
			if in, err = genServeInputs(workload, seed, tinySizes, 4, 20, dir); err == nil {
				d, err = in.digest()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, wl := range []string{"serve-drift", "serve-churn", "ingest-solve"} {
		a, b, c := digest(wl, 11), digest(wl, 11), digest(wl, 12)
		if a != b {
			t.Errorf("%s: seed 11 gave different inputs on two generations", wl)
		}
		// The ingest graph is a fixed instance; the serve workloads' seed
		// drives the traffic.
		if (a == c) != (wl == "ingest-solve") {
			t.Errorf("%s: seeds 11 and 12 gave identical inputs: %t", wl, a == c)
		}
	}
}

// TestMirrorReplaysOnlyApplied: the churn mirror takes an update only as
// far as the server applied it (a shed update not at all, a batch
// rejected mid-way up to its applied prefix), and an update with no
// known outcome leaves the mirror unknown.
func TestMirrorReplaysOnlyApplied(t *testing.T) {
	in, err := genServeInputs("serve-churn", 5, tinySizes, 4, 20, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(in.updates) < 3 {
		t.Fatalf("%d updates generated, want at least 3", len(in.updates))
	}
	full := len(in.updates[0].muts)
	outs := []*outcome{
		{isUpdate: true, q: 0, status: 200, body: []byte(fmt.Sprintf(`{"applied":%d,"converged":true}`, full))},
		{isUpdate: true, q: 1, status: 429, body: []byte(`{"error":"server saturated, retry later"}`)},
		{isUpdate: true, q: 2, status: 400, body: []byte(`{"applied":1,"generation":9,"error":"serve: update 1 rejected"}`)},
	}
	applied := appliedOps(outs, 3)
	if want := []int{full, 0, 1}; fmt.Sprint(applied) != fmt.Sprint(want) {
		t.Fatalf("applied %v, want %v", applied, want)
	}
	mirror := in.g.Clone()
	if err := applyStream(mirror, in.updates, applied); err != nil {
		t.Fatal(err)
	}
	want := in.g.Clone()
	for _, m := range append(append([]gen.Mutation(nil), in.updates[0].muts...), in.updates[2].muts[0]) {
		if err := m.Apply(want); err != nil {
			t.Fatal(err)
		}
	}
	if mirror.Generation() != want.Generation() {
		t.Fatalf("mirror at generation %d, want %d", mirror.Generation(), want.Generation())
	}
	if err := sameInput(want, mirror, 0); err != nil {
		t.Fatalf("mirror differs from the applied stream: %v", err)
	}

	outs[1] = &outcome{isUpdate: true, q: 1, err: io.ErrUnexpectedEOF}
	if err := applyStream(in.g.Clone(), in.updates, appliedOps(outs, 3)); err == nil {
		t.Fatal("an update lost to a transport error was replayed as if its outcome were known")
	}
}

func TestCheckerCountsCorruptedAnswers(t *testing.T) {
	dir := t.TempDir()
	in, err := genServeInputs("serve-drift", 9, tinySizes, 1, 20, dir)
	if err != nil {
		t.Fatal(err)
	}
	q := &in.queries[0]
	// The oracle checks full answers; fq is q asking for every node.
	fq := encodeQuery(q.ev, nil)
	og, _, err := oracleSolve(in.g, &fq)
	if err != nil {
		t.Fatal(err)
	}
	// fromGraph is a correct answer laid out from a solved graph.
	fromGraph := func(g *graph.Graph) *serve.Response {
		r := &serve.Response{Converged: true, Beliefs: map[string][]float32{}}
		for v := int32(0); v < int32(g.NumNodes); v++ {
			r.Beliefs[strconv.Itoa(int(v))] = append([]float32(nil), g.Belief(v)...)
		}
		return r
	}
	var clamped, free, root string
	var freeNode int32 = -1
	for v := int32(0); v < int32(in.g.NumNodes); v++ {
		b := og.Belief(v)
		switch {
		case fq.clampOf(v) >= 0:
			clamped = strconv.Itoa(int(v))
		case in.g.InDegree(v) == 0 && in.g.OutDegree(v) == 0 && b[0] < 0.9:
			root = strconv.Itoa(int(v))
		case freeNode < 0 && b[0] > 0.1 && b[0] < 0.9:
			freeNode, free = v, strconv.Itoa(int(v))
		}
	}
	if clamped == "" || freeNode < 0 || root == "" {
		t.Fatal("this draw lacks a clamped node, an undecided free node or an isolated free node")
	}
	// stale is the fixpoint of fq's evidence plus one more clamp, as an
	// answer left over from before a retraction would be.
	staleQ := encodeQuery(append(append([]evidence(nil), fq.ev...), evidence{node: freeNode, state: 1}), nil)
	sort.Slice(staleQ.ev, func(i, j int) bool { return staleQ.ev[i].node < staleQ.ev[j].node })
	stale, _, err := oracleSolve(in.g, &staleQ)
	if err != nil {
		t.Fatal(err)
	}
	check := func(r *serve.Response) error {
		if err := checkAnswer(&fq, in.g.NumNodes, in.g.States, r); err != nil {
			return err
		}
		_, err := checkFixpoint(in.g, &fq, r)
		return err
	}
	if err := check(fromGraph(og)); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	corruptions := map[string]func(r *serve.Response){
		"not converged":  func(r *serve.Response) { r.Converged = false },
		"node missing":   func(r *serve.Response) { delete(r.Beliefs, free) },
		"extra node":     func(r *serve.Response) { r.Beliefs["999999"] = []float32{0.5, 0.5} },
		"NaN belief":     func(r *serve.Response) { r.Beliefs[free][0] = float32(math.NaN()) },
		"sum is not one": func(r *serve.Response) { r.Beliefs[free][0] += 0.1 },
		"wrong width":    func(r *serve.Response) { r.Beliefs[free] = r.Beliefs[free][:1] },
		"off the fixpoint": func(r *serve.Response) {
			// Still a distribution, but 0.05 from where BP puts it.
			b := r.Beliefs[free]
			b[0], b[1] = b[0]+0.05, b[1]-0.05
		},
		"clamp not one-hot": func(r *serve.Response) { r.Beliefs[clamped] = []float32{0.5, 0.5} },
		// An isolated free node never moves under BP and moves nothing
		// else, so only its prior tells that one-hot is a clamp left over.
		"stale clamp on an isolated node": func(r *serve.Response) { r.Beliefs[root] = []float32{1, 0} },
		"stale evidence": func(r *serve.Response) {
			*r = *fromGraph(stale)
		},
	}
	for name, c := range corruptions {
		r := fromGraph(og)
		c(r)
		if err := check(r); err == nil {
			t.Errorf("%s: corrupted answer passed the checks", name)
		}
	}

	// Through the run's accounting: a corrupted 200 is a failure and makes
	// the run incorrect; a 429 is a failure but not a wrong answer.
	rep := newReport()
	a := newServeAnalysis(runOpts{sz: tinySizes}, in, in.g, nil, nil, rep)
	now := time.Now()
	first := strconv.Itoa(int(in.respNodes[0]))
	bad := &outcome{id: 1, phase: phaseClosed, qry: q, status: 200, due: now, sent: now, done: now,
		body: []byte(`{"converged":true,"beliefs":{"` + first + `":[0.5,0.7]}}`)}
	a.add(bad, nil)
	shed := &outcome{id: 2, phase: phaseClosed, qry: q, status: 429, due: now, sent: now, done: now}
	a.add(shed, nil)
	// An oracle-sampled answer of the right shape that is off the
	// fixpoint of its evidence.
	var cq *query
	for i := range in.queries {
		if in.queries[i].checked {
			cq = &in.queries[i]
			break
		}
	}
	if cq == nil {
		t.Fatal("no open-loop query is sampled for the oracle")
	}
	cg, _, err := oracleSolve(in.g, cq)
	if err != nil {
		t.Fatal(err)
	}
	off := fromGraph(cg)
	b := off.Beliefs[free]
	b[0], b[1] = b[0]+0.05, b[1]-0.05
	body, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	a.add(&outcome{id: 3, phase: phaseOpen, q: 0, qry: cq, status: 200, due: now, sent: now, done: now, body: body}, nil)
	if rep.attempted != 3 || rep.failed != 3 || rep.wrong != 2 {
		t.Fatalf("attempted=%d failed=%d wrong=%d, want 3/3/2", rep.attempted, rep.failed, rep.wrong)
	}
	if res, _ := rep.result(false); res.Correct {
		t.Fatal("a run with a corrupted answer reported correct")
	}
}

// digest hashes every byte a workload would send or read: the .mtx
// pair, the request bodies in schedule order, the schedule itself and
// the update stream. Equal digests mean byte-identical inputs.
func (in *serveInputs) digest() (string, error) {
	h := sha256.New()
	for _, p := range []string{in.nodesPath, in.edgesPath} {
		if err := hashFile(h, p); err != nil {
			return "", err
		}
	}
	h.Write(in.warmup.body)
	for _, list := range [][]item{in.open, in.closed} {
		for _, it := range list {
			fmt.Fprintf(h, "%d/%t/%d;", it.due, it.isUpdate, it.q)
		}
	}
	for _, q := range in.queries {
		h.Write(q.body)
	}
	for _, q := range in.mirror {
		h.Write(q.body)
	}
	for _, u := range in.updates {
		h.Write(u.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func (in *ingestInputs) digest() (string, error) {
	h := sha256.New()
	for _, p := range []string{in.nodesPath, in.edgesPath} {
		if err := hashFile(h, p); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func hashFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// TestFixpointCheckAcceptsAnotherBasin pins why the oracle checks an
// answer by re-converging from it instead of against a cold start. On
// the serve graph loopy BP has two stable fixpoints (most nodes leaning
// to state 0, or most to state 1), and which one a cold start from the
// priors reaches flips with a few toggled clamps. A warm start from the
// previous answer stays where it was. The drift stream of this seed
// crosses such a flip; the warm answer there is a BP fixpoint of its
// evidence and passes, although it sits a whole belief away from the
// cold start of the same evidence.
func TestFixpointCheckAcceptsAnotherBasin(t *testing.T) {
	in, err := genServeInputs("serve-drift", 1274337167, fullSizes, 30, 6, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lean := func(b []float32) float64 { // mean belief in state 0
		s := 0.0
		for i := 0; i < len(b); i += states {
			s += float64(b[i])
		}
		return s / float64(len(b)/states)
	}
	from, _, err := oracleSolve(in.g, &in.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 200; i++ {
		q := encodeQuery(in.queries[i].ev, nil)
		cold, _, err := oracleSolve(in.g, &q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lean(cold.Beliefs)-lean(from.Beliefs)) < 0.25 {
			continue
		}
		// Stage q warm from the earlier fixpoint the way the server does:
		// its clamps one-hot, nodes it no longer clamps back at their
		// prior, every other node at the old belief.
		g := in.g.Clone()
		for _, e := range q.ev {
			if err := g.Observe(e.node, int(e.state)); err != nil {
				t.Fatal(err)
			}
		}
		prev := in.queries[0]
		for v := int32(0); v < int32(g.NumNodes); v++ {
			if q.clampOf(v) < 0 && prev.clampOf(v) < 0 {
				copy(g.Belief(v), from.Belief(v))
			} else {
				copy(g.Belief(v), g.Prior(v))
			}
		}
		all := make([]int32, g.NumNodes)
		for v := range all {
			all[v] = int32(v)
		}
		if res := bp.RunResidualFrom(g, oracleOptions(), all); !res.Converged {
			t.Fatal("warm start did not converge")
		}
		warm := &serve.Response{Converged: true, Beliefs: map[string][]float32{}}
		for v := int32(0); v < int32(g.NumNodes); v++ {
			warm.Beliefs[strconv.Itoa(int(v))] = append([]float32(nil), g.Belief(v)...)
		}
		if d := beliefDist(g.Beliefs, cold.Beliefs); d <= serve.WarmTol {
			t.Fatalf("query %d: warm start landed %.3g from the cold start; no second fixpoint shown", i, d)
		}
		if err := checkAnswer(&q, g.NumNodes, g.States, warm); err != nil {
			t.Fatal(err)
		}
		if _, err := checkFixpoint(in.g, &q, warm); err != nil {
			t.Fatalf("query %d: a warm BP fixpoint was rejected: %v", i, err)
		}
		return
	}
	t.Fatal("no cold start of the first 200 drift queries left the first one's fixpoint")
}
