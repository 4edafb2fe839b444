package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"credo/internal/bp"
	"credo/internal/core"
	"credo/internal/gpusim"
	"credo/internal/serve"
)

const (
	graphName = "g"
	idHeader  = "X-Perfbench-Id"

	// Teardown deadlines: a hung server fails the run instead of hanging it.
	shutdownTimeout = 5 * time.Second
	drainTimeout    = 5 * time.Second
	serveExitWait   = 5 * time.Second
)

// daemonConfig is serve.Config as credoserved builds it from its flag
// defaults: WorkQueue on, CUDA simulation off, the default batcher
// (BatchK 8, 2 ms window), MaxInFlight 4 and MRF doubling.
func daemonConfig() serve.Config {
	return serve.Config{
		Selector: core.Selector{GPU: gpusim.Pascal(), DisableCUDA: true},
		Options: bp.Options{
			Threshold:     bp.DefaultThreshold,
			MaxIterations: bp.DefaultMaxIterations,
			WorkQueue:     true,
		},
		MaxInFlight: serve.DefaultMaxInFlight,
		RetryAfter:  time.Second,
		BatchK:      serve.DefaultBatchK,
		BatchWindow: serve.DefaultBatchWindow,
		MRF:         true,
	}
}

// handlerTimes is the benchmark middleware around Server.Handler(): in
// a traced run it stamps when each request entered and left the
// handler, keyed by the client's request id.
type handlerTimes struct {
	next http.Handler
	on   *atomic.Bool
	mu   sync.Mutex
	at   map[int64][2]time.Time
}

func (h *handlerTimes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	if id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64); err == nil {
		h.mu.Lock()
		h.at[id] = [2]time.Time{start, end}
		h.mu.Unlock()
	}
}

func (h *handlerTimes) lookup(id int64) ([2]time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.at[id]
	return t, ok
}

// server is one in-process serving instance: serve.Server behind a real
// net/http server on a 127.0.0.1 ephemeral port, and the client
// transport that talks to it. No child process exists, so nothing can
// outlive the benchmark's own process.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	addr   string
	tr     *http.Transport
	client *http.Client
	served chan error
	times  *handlerTimes // nil in untraced runs
	closed bool
}

// startServer loads the .mtx pair into a fresh serve.Server and starts
// serving it. traced wraps the handler in the timing middleware, with
// recording switched by tracing.
func startServer(nodesPath, edgesPath string, traced bool, tracing *atomic.Bool) (*server, error) {
	srv := serve.New(daemonConfig())
	if _, err := srv.LoadFiles(graphName, serve.LoadSpec{Nodes: nodesPath, Edges: edgesPath}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.DrainBatchers()
		return nil, err
	}
	s := &server{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if traced {
		s.times = &handlerTimes{next: h, on: tracing, at: make(map[int64][2]time.Time)}
		h = s.times
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	conns := runtime.GOMAXPROCS(0)
	s.tr = &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}
	s.client = &http.Client{Transport: s.tr}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// post sends one request and reads the whole response.
func (s *server) post(ctx context.Context, path string, body []byte, id int64) (status int, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+s.addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	r, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	return r.StatusCode, resp, err
}

// close tears the instance down in a fixed order, each step under a
// hard deadline: http.Server.Shutdown (forced Close past its deadline),
// Server.DrainBatchers, Transport.CloseIdleConnections, then the wait
// for the serve loop to return.
func (s *server) close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	err := s.hs.Shutdown(ctx)
	cancel()
	if err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
		s.hs.Close()
	}
	if !within(drainTimeout, s.srv.DrainBatchers) {
		errs = append(errs, fmt.Errorf("drain batchers: still running after %v", drainTimeout))
	}
	s.tr.CloseIdleConnections()
	select {
	case err := <-s.served:
		if !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve loop: %w", err))
		}
	case <-time.After(serveExitWait):
		errs = append(errs, fmt.Errorf("serve loop still running after %v", serveExitWait))
	}
	return errors.Join(errs...)
}

// within runs f and reports whether it returned before d elapsed. A
// late f keeps running; the caller fails the run, and process exit ends
// it.
func within(d time.Duration, f func()) bool {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
