package main

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of a serve run. Outcomes carry the phase they were sent in.
const (
	phaseOpen = iota
	phaseClosed
	phaseCheck
)

// outcome is one request as the client saw it. Bodies are kept whole:
// they are parsed and checked after the timed phases, so the checker
// never competes with the server for the cores.
type outcome struct {
	id       int64
	isUpdate bool
	phase    int
	q        int    // query index, or update index in stream order
	qry      *query // the query sent (nil for updates)
	due      time.Time
	sent     time.Time
	done     time.Time
	status   int
	body     []byte
	err      error
	traced   bool
}

// latency is the request's time from its due time to the end of its
// response (open loop); closed-loop requests are due when sent.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// loadgen is the single load generator: at most GOMAXPROCS keep-alive
// connections, queries from the pre-generated schedule, and updates from
// one writer in stream order, each sent after the previous update's
// response.
type loadgen struct {
	s       *server
	in      *serveInputs
	workers int
	tracing *atomic.Bool

	nextID atomic.Int64
	closed atomic.Int64 // next closed-loop list position

	writerMu   sync.Mutex
	nextUpdate int // guarded by writerMu

	mu   sync.Mutex
	outs []*outcome
}

func newLoadgen(s *server, in *serveInputs, tracing *atomic.Bool) *loadgen {
	return &loadgen{s: s, in: in, workers: runtime.GOMAXPROCS(0), tracing: tracing}
}

// do sends one scheduled request and records its outcome.
func (lg *loadgen) do(ctx context.Context, it item, phase int, due time.Time) *outcome {
	o := &outcome{id: lg.nextID.Add(1), isUpdate: it.isUpdate, phase: phase, q: it.q}
	path, body := "/v1/query", []byte(nil)
	if it.isUpdate {
		// The stream holds one update per update item of the schedules,
		// so it cannot run dry.
		lg.writerMu.Lock()
		defer lg.writerMu.Unlock()
		o.q = lg.nextUpdate
		lg.nextUpdate++
		path, body = "/v1/update", lg.in.updates[o.q].body
	} else {
		o.qry = &lg.in.queries[it.q]
		body = o.qry.body
	}
	o.traced = lg.tracing.Load()
	o.sent = time.Now()
	o.due = due
	if due.IsZero() {
		o.due = o.sent
	}
	o.status, o.body, o.err = lg.s.post(ctx, path, body, o.id)
	o.done = time.Now()
	lg.record(o)
	return o
}

// query sends one unscheduled query (set-up and check phases).
func (lg *loadgen) query(ctx context.Context, q *query, phase int) *outcome {
	o := &outcome{id: lg.nextID.Add(1), phase: phase, q: -1, qry: q, traced: lg.tracing.Load()}
	o.sent = time.Now()
	o.due = o.sent
	o.status, o.body, o.err = lg.s.post(ctx, "/v1/query", q.body, o.id)
	o.done = time.Now()
	lg.record(o)
	return o
}

func (lg *loadgen) record(o *outcome) {
	lg.mu.Lock()
	lg.outs = append(lg.outs, o)
	lg.mu.Unlock()
}

// openResult is what the open-loop phase reports besides its outcomes.
type openResult struct {
	lateMs  []float64 // generator lateness per scheduled request
	backlog int       // requests dispatched but not completed at schedule end
}

// openLoop replays the Poisson schedule at its fixed offered rate. The
// generator hands each request to the sender pool at its due time; a
// request is timed from that due time, so waiting for a free connection
// counts as latency. How late the generator itself woke is recorded
// separately, as the validity check.
func (lg *loadgen) openLoop(ctx context.Context) (openResult, error) {
	sched := lg.in.open
	res := openResult{lateMs: make([]float64, 0, len(sched))}
	queue := make(chan int, len(sched))
	var completed atomic.Int64
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				lg.do(ctx, sched[i], phaseOpen, start.Add(sched[i].due))
				completed.Add(1)
			}
		}()
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	sleepUntil := func(t time.Time) bool {
		d := time.Until(t)
		if d <= 0 {
			return ctx.Err() == nil
		}
		timer.Reset(d)
		select {
		case <-timer.C:
			return true
		case <-ctx.Done():
			return false
		}
	}
	dispatched := 0
	for i, it := range sched {
		due := start.Add(it.due)
		if !sleepUntil(due) {
			break
		}
		res.lateMs = append(res.lateMs, float64(time.Since(due))/1e6)
		queue <- i
		dispatched++
	}
	end := start.Add(time.Duration(lg.in.openSecs * float64(time.Second)))
	if ctx.Err() == nil && sleepUntil(end) {
		res.backlog = dispatched - int(completed.Load())
	}
	close(queue)
	wg.Wait()
	return res, ctx.Err()
}

// closedLoop runs GOMAXPROCS clients back to back on the closed-loop
// list for secs, continuing where a previous call stopped, and returns
// the completed-OK requests per second.
func (lg *loadgen) closedLoop(ctx context.Context, secs float64) (float64, error) {
	list := lg.in.closed
	start := time.Now()
	stop := start.Add(time.Duration(secs * float64(time.Second)))
	var ok atomic.Int64
	var last atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(stop) {
				i := lg.closed.Add(1) - 1
				if int(i) >= len(list) {
					return
				}
				o := lg.do(ctx, list[i], phaseClosed, time.Time{})
				if o.err == nil && o.status == 200 {
					ok.Add(1)
				}
				for {
					cur := last.Load()
					d := o.done.Sub(start).Nanoseconds()
					if d <= cur || last.CompareAndSwap(cur, d) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	elapsed := float64(last.Load()) / 1e9
	if elapsed <= 0 {
		return 0, errors.New("closed loop completed no request")
	}
	return float64(ok.Load()) / elapsed, nil
}
