package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"credo/internal/bp"
	"credo/internal/graph"
	"credo/internal/serve"
)

// sumTol bounds |Σ belief − 1| for a served float32 distribution.
const sumTol = 1e-3

// failKind classifies a failed request for fail_frac and correct.
type failKind int

const (
	failNone  failKind = iota
	failShed           // 429: counted as failed, the answer is not wrong
	failWrong          // anything else: a transport error, another non-200, or an answer failing a check
)

// transportFailure classifies the status and transport error of o.
func transportFailure(o *outcome) (failKind, error) {
	switch {
	case o.err != nil:
		return failWrong, o.err
	case o.status == 429:
		return failShed, fmt.Errorf("shed (429)")
	case o.status != 200:
		return failWrong, fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	return failNone, nil
}

// parseQuery decodes a query response body.
func parseQuery(body []byte) (*serve.Response, error) {
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode query response: %w", err)
	}
	return &r, nil
}

// checkAnswer checks the shape of one query answer: converged, exactly
// the nodes q asked for present (every node when q.nodes is nil), each
// belief finite and summing to 1, and each clamped node one-hot on its
// evidence state.
func checkAnswer(q *query, numNodes, states int, r *serve.Response) error {
	nodes := q.nodes
	if !r.Converged {
		return fmt.Errorf("converged:false after %d iterations", r.Iterations)
	}
	want := len(nodes)
	if nodes == nil {
		want = numNodes
	}
	if len(r.Beliefs) != want {
		return fmt.Errorf("answer has %d nodes, want %d", len(r.Beliefs), want)
	}
	check := func(v int32) error {
		b, ok := r.Beliefs[strconv.Itoa(int(v))]
		if !ok {
			return fmt.Errorf("node %d missing from answer", v)
		}
		if len(b) != states {
			return fmt.Errorf("node %d has %d states, want %d", v, len(b), states)
		}
		var sum float64
		for _, p := range b {
			x := float64(p)
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || x > 1+sumTol {
				return fmt.Errorf("node %d belief %v is not a probability", v, b)
			}
			sum += x
		}
		if math.Abs(sum-1) > sumTol {
			return fmt.Errorf("node %d belief %v sums to %v", v, b, sum)
		}
		if s := q.clampOf(v); s >= 0 {
			for j, p := range b {
				want := float32(0)
				if int32(j) == s {
					want = 1
				}
				if p != want {
					return fmt.Errorf("clamped node %d (state %d) is not one-hot: %v", v, s, b)
				}
			}
		}
		return nil
	}
	if nodes != nil {
		for _, v := range nodes {
			if err := check(v); err != nil {
				return err
			}
		}
		return nil
	}
	for v := int32(0); v < int32(numNodes); v++ {
		if err := check(v); err != nil {
			return err
		}
	}
	return nil
}

// oracleOptions are the propagation parameters of a cold oracle solve:
// the serving template (WorkQueue on, default threshold and cap).
func oracleOptions() bp.Options { return daemonConfig().Options }

// oracleSolve runs a cold sequential bp.RunNode on a clone of base with
// q's evidence clamped.
func oracleSolve(base *graph.Graph, q *query) (*graph.Graph, bp.Result, error) {
	g := base.Clone()
	for _, e := range q.ev {
		if err := g.Observe(e.node, int(e.state)); err != nil {
			return nil, bp.Result{}, err
		}
	}
	res := bp.RunNode(g, oracleOptions())
	if !res.Converged {
		return nil, res, fmt.Errorf("oracle did not converge in %d iterations", res.Iterations)
	}
	return g, res, nil
}

// servedBeliefs lays a full-posterior answer out as a belief array of
// base's shape.
func servedBeliefs(base *graph.Graph, r *serve.Response) ([]float32, error) {
	if len(r.Beliefs) != base.NumNodes {
		return nil, fmt.Errorf("answer has %d nodes, the check needs all %d", len(r.Beliefs), base.NumNodes)
	}
	out := make([]float32, len(base.Beliefs))
	for v := 0; v < base.NumNodes; v++ {
		b := r.Beliefs[strconv.Itoa(v)]
		if len(b) != base.States {
			return nil, fmt.Errorf("node %d missing from answer", v)
		}
		copy(out[v*base.States:], b)
	}
	return out, nil
}

// checkFixpoint checks that a full-posterior answer r to q is a BP
// fixpoint of base with q's evidence: BP re-converged from the served
// beliefs (every node seeded) must converge and move no belief by more
// than serve.WarmTol, and every free node without inputs, which BP
// never updates, must hold its prior within serve.WarmTol. It returns
// the larger of the two distances.
//
// This is the oracle the project's own delta and warm-start checks use
// (re-converge from the carried state) rather than a cold start from
// uniform: on the serve graph loopy BP has more than one stable
// fixpoint, a warm start stays in the basin it was in while a cold start
// picks one by the evidence, and both are correct BP answers. An answer
// for other evidence, from a stale snapshot, or not converged moves
// under re-convergence and fails.
func checkFixpoint(base *graph.Graph, q *query, r *serve.Response) (float64, error) {
	served, err := servedBeliefs(base, r)
	if err != nil {
		return 0, err
	}
	g := base.Clone()
	for _, e := range q.ev {
		if err := g.Observe(e.node, int(e.state)); err != nil {
			return 0, err
		}
	}
	copy(g.Beliefs, served)
	all := make([]int32, g.NumNodes)
	for v := range all {
		all[v] = int32(v)
	}
	res := bp.RunResidualFrom(g, oracleOptions(), all)
	d := beliefDist(served, g.Beliefs)
	for v := int32(0); v < int32(g.NumNodes); v++ {
		if !g.Observed[v] && g.InDegree(v) == 0 {
			d = math.Max(d, beliefDist(g.Belief(v), g.Prior(v)))
		}
	}
	switch {
	case !res.Converged:
		return d, fmt.Errorf("BP from the answer did not re-converge in %d iterations", res.Iterations)
	case d > serve.WarmTol:
		return d, fmt.Errorf("answer is not a BP fixpoint of its evidence: re-converging moves it %.4g, past serve.WarmTol %.4g", d, serve.WarmTol)
	}
	return d, nil
}

// beliefDist is the L∞ distance of two belief arrays.
func beliefDist(a, b []float32) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		worst = math.Max(worst, d)
	}
	return worst
}

// parseUpdate decodes an update response body.
func parseUpdate(body []byte) (*serve.UpdateResponse, error) {
	var r serve.UpdateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode update response: %w", err)
	}
	return &r, nil
}

// checkUpdate checks one update response against the ops it carried.
func checkUpdate(u *update, body []byte) (*serve.UpdateResponse, error) {
	r, err := parseUpdate(body)
	if err != nil {
		return nil, err
	}
	if r.Error != "" {
		return r, fmt.Errorf("update rejected: %s", r.Error)
	}
	if r.Applied != len(u.muts) {
		return r, fmt.Errorf("update applied %d of %d ops", r.Applied, len(u.muts))
	}
	if !r.Converged {
		return r, fmt.Errorf("update re-convergence: converged:false")
	}
	return r, nil
}

// sameInput reports the first field in which got differs from want in
// what an .mtx pair carries (shape, priors, clamps, adjacency, joint
// matrices), or nil. The belief and message state a run overwrites is
// not compared. Values must be bit-identical when tol is 0 and within
// tol otherwise.
func sameInput(want, got *graph.Graph, tol float64) error {
	if want.NumNodes != got.NumNodes || want.NumEdges != got.NumEdges || want.States != got.States {
		return fmt.Errorf("shape %d/%d/%d, want %d/%d/%d",
			got.NumNodes, got.NumEdges, got.States, want.NumNodes, want.NumEdges, want.States)
	}
	f32 := func(name string, a, b []float32) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: length %d, want %d", name, len(b), len(a))
		}
		for i := range a {
			same := math.Float32bits(a[i]) == math.Float32bits(b[i])
			if tol > 0 {
				same = math.Abs(float64(a[i]-b[i])) <= tol
			}
			if !same {
				return fmt.Errorf("%s[%d] = %v, want %v", name, i, b[i], a[i])
			}
		}
		return nil
	}
	i32 := func(name string, a, b []int32) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: length %d, want %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("%s[%d] = %d, want %d", name, i, b[i], a[i])
			}
		}
		return nil
	}
	if err := f32("priors", want.Priors, got.Priors); err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		a, b []int32
	}{
		{"edge_src", want.EdgeSrc, got.EdgeSrc}, {"edge_dst", want.EdgeDst, got.EdgeDst},
		{"in_offsets", want.InOffsets, got.InOffsets}, {"in_edges", want.InEdges, got.InEdges},
		{"out_offsets", want.OutOffsets, got.OutOffsets}, {"out_edges", want.OutEdges, got.OutEdges},
	} {
		if err := i32(c.name, c.a, c.b); err != nil {
			return err
		}
	}
	for i := range want.Observed {
		if want.Observed[i] != got.Observed[i] {
			return fmt.Errorf("observed[%d] differs", i)
		}
	}
	if (want.Shared == nil) != (got.Shared == nil) || len(want.EdgeMats) != len(got.EdgeMats) {
		return fmt.Errorf("joint-matrix mode differs")
	}
	if want.Shared != nil {
		if err := f32("shared", want.Shared.Data, got.Shared.Data); err != nil {
			return err
		}
	}
	for e := range want.EdgeMats {
		if err := f32("edge_mats["+strconv.Itoa(e)+"]", want.EdgeMats[e].Data, got.EdgeMats[e].Data); err != nil {
			return err
		}
	}
	return nil
}

// maxBeliefDiff is the largest per-entry belief distance of two solves
// of the same graph.
func maxBeliefDiff(a, b *graph.Graph) float64 { return beliefDist(a.Beliefs, b.Beliefs) }
