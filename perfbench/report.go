package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric of the machine-readable result.
type metricDef struct {
	name, unit string
}

// endToEnd are the --trace 0 metrics. Every workload reports each of
// them, so their meaning is per workload:
//
//	latency_p50_ms   serve-*: query_p50_ms; ingest-solve: time_to_beliefs_s in ms
//	capacity_ops_s   serve-*: capacity_qps; ingest-solve: timed solves per second
//	rss_p50_mb       the median resident set over the measured phases (the
//	                 report also prints the VmHWM peak, peak_rss_mb)
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"capacity_ops_s", "1/s"},
	{"rss_p50_mb", "MB"},
}

// perLayer are the --trace 1 metrics. Layers a workload does not cross
// read 0, so the serve layers' times are reported as shares of the
// request round trip (the report prints them in ms as well).
var perLayer = []metricDef{
	{"http.self_frac", "ratio"},
	{"http.resp_kb", "kB"},
	{"serve.queue_frac", "ratio"},
	{"serve.run_frac", "ratio"},
	{"serve.shed_frac", "ratio"},
	{"serve.warm_frac", "ratio"},
	{"serve.batched_frac", "ratio"},
	{"engine.warm_update_ratio", "ratio"},
	{"serve.update_run_frac", "ratio"},
	{"serve.update_wait_frac", "ratio"},
	{"serve.update_warm_frac", "ratio"},
	{"serve.update_structural_frac", "ratio"},
	{"mtxbp.read_ms", "ms"},
	{"mtxbp.mb_s", "MB/s"},
	{"core.select_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.iterations", "count"},
	{"engine.updates", "count"},
	{"engine.edges", "count"},
	{"kernel.ns_per_edge_state", "ns"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// timeUnits are units that must never read 0: a layer that reports a
// time is a layer every workload crosses.
var timeUnits = map[string]bool{"s": true, "ms": true, "ns": true}

// report collects one run's outcome: counts, metrics and the
// human-readable lines printed before the result.
type report struct {
	attempted int
	failed    int
	wrong     int // failures that make the run incorrect (all but sheds)
	failNotes []string

	e2e    map[string]float64
	layers map[string]float64 // every layer metric measured, by name
	units  map[string]string
	moves  map[string]string // layer metric -> the end-to-end metric it should move
	lines  []string
	header []string

	invalid []string // validity-guard violations
}

func newReport() *report {
	return &report{
		e2e:    make(map[string]float64),
		layers: make(map[string]float64),
		units:  make(map[string]string),
		moves:  make(map[string]string),
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// layer records a per-layer value with its unit and the end-to-end
// metric it should move.
func (r *report) layer(name string, v float64, unit, moves string) {
	r.layers[name] = v
	r.units[name] = unit
	r.moves[name] = moves
}

// fail counts one failed operation; only the first few are described.
func (r *report) fail(kind failKind, what string, err error) {
	r.failed++
	if kind != failShed {
		r.wrong++
	}
	if len(r.failNotes) < 10 {
		r.failNotes = append(r.failNotes, fmt.Sprintf("%s: %v", what, err))
	}
}

// result assembles the machine-readable line for the trace mode.
func (r *report) result(trace bool) (result, error) {
	res := result{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layers
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !timeUnits[d.unit] {
			v, ok = 0, true // a layer this workload does not cross
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// print writes the human-readable report and then the result line.
func (r *report) print(w io.Writer, res result, trace bool) error {
	for _, l := range r.header {
		fmt.Fprintln(w, l)
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	if trace {
		fmt.Fprintln(w, "per-layer metrics (-> the end-to-end metric each should move):")
		names := make([]string, 0, len(r.layers))
		for n := range r.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s -> %s\n", n, r.layers[n], r.units[n], r.moves[n])
		}
	}
	fmt.Fprintf(w, "attempted=%d failed=%d fail_frac=%.6g correct=%t\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.wrong == 0)
	for _, n := range r.failNotes {
		fmt.Fprintln(w, "  failure:", n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
