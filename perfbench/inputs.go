package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/mtxbp"
)

// sizes shapes the generated inputs of every workload. fullSizes is the
// benchmark; the tests run tinySizes through the same code.
type sizes struct {
	ServeNodes, ServeEdges int

	DriftEvidence float64 // initial evidence set, as a fraction of nodes
	DriftToggle   float64 // clamps toggled per query, as a fraction of nodes
	DriftNodes    int     // fixed response nodes per drift query

	ChurnEvidence   float64 // independent evidence set per churn query
	ChurnUpdateFrac float64 // share of churn requests that are /v1/update
	UpdateOps       int     // gen.Mutations ops per update request

	IngestNodes, IngestEdges int

	OpenShare     float64 // share of --seconds given to the open-loop phase
	ClosedCapRate float64 // closed-loop inputs generated per second (drift)
	ChurnCapRate  float64 // closed-loop inputs generated per second (churn)
	OracleSamples int     // open-loop drift queries answered in full and checked by the oracle
	MirrorQueries int     // churn queries checked against the mirror
	SetupReps     int     // serve set-ups per run (median reported)
	IngestSetups  int     // ingest-solve untimed set-up solves (median reported)
	MinSolves     int     // ingest-solve timed solves, at least
	LateBoundMs   float64 // validity: p95 generator lateness
	BacklogMin    int     // validity: allowed backlog floor
	BacklogShare  float64 // validity: allowed backlog as a share of the schedule
}

// states is the belief width of every generated graph.
const states = 2

// phaseSlack is how far a phase may run past its nominal length before
// the run fails.
const phaseSlack = 30 * time.Second

var fullSizes = sizes{
	ServeNodes: 5000, ServeEdges: 20000,
	DriftEvidence: 0.01, DriftToggle: 0.001, DriftNodes: 16,
	ChurnEvidence: 0.06, ChurnUpdateFrac: 0.2, UpdateOps: 8,
	IngestNodes: 200000, IngestEdges: 800000,
	OpenShare: 0.7, ClosedCapRate: 500, ChurnCapRate: 100,
	OracleSamples: 6, MirrorQueries: 2, SetupReps: 11, IngestSetups: 3, MinSolves: 3,
	LateBoundMs: 50, BacklogMin: 8, BacklogShare: 0.1,
}

// tinySizes keeps every code path but finishes in well under a second
// of load, for the package tests.
var tinySizes = sizes{
	ServeNodes: 400, ServeEdges: 1600,
	DriftEvidence: 0.02, DriftToggle: 0.005, DriftNodes: 8,
	ChurnEvidence: 0.06, ChurnUpdateFrac: 0.2, UpdateOps: 4,
	IngestNodes: 2000, IngestEdges: 8000,
	OpenShare: 0.65, ClosedCapRate: 2000, ChurnCapRate: 2000,
	OracleSamples: 3, MirrorQueries: 2, SetupReps: 2, IngestSetups: 2, MinSolves: 2,
	LateBoundMs: 250, BacklogMin: 50, BacklogShare: 0.5,
}

// evidence is one clamp of a query, in node order within a query.
type evidence struct {
	node, state int32
}

// query is one pre-encoded /v1/query body plus the evidence and the
// nodes it asks for (nil = the full posterior), kept for the answer
// checks. checked marks a query whose answer the oracle checks after the
// run.
type query struct {
	body    []byte
	ev      []evidence
	nodes   []int32
	checked bool
}

// clampOf returns the state node v is clamped to in q, or -1.
func (q *query) clampOf(v int32) int32 {
	i := sort.Search(len(q.ev), func(i int) bool { return q.ev[i].node >= v })
	if i < len(q.ev) && q.ev[i].node == v {
		return q.ev[i].state
	}
	return -1
}

// update is one pre-encoded /v1/update body and the mutations it
// encodes, which the churn mirror replays.
type update struct {
	body []byte
	muts []gen.Mutation
}

// item is one scheduled request: a query (by index) or the next update
// of the stream. due is the offset from the phase start (open loop only).
type item struct {
	due      time.Duration
	isUpdate bool
	q        int
}

// serveInputs is everything a serve workload sends, generated from the
// seed before any clock starts.
type serveInputs struct {
	workload             string
	g                    *graph.Graph
	nodesPath, edgesPath string
	fileBytes            int64
	respNodes            []int32 // drift: requested nodes (churn: nil, the full posterior)
	warmup               query   // the cold query that ends set-up
	queries              []query
	open, closed         []item
	updates              []update
	mirror               []query // churn: quiesced checks against the mirror
	openSecs, closedSecs float64
	rate                 float64
}

// phaseSecs splits --seconds between the open- and closed-loop phases.
func phaseSecs(sz sizes, seconds float64) (open, closed float64) {
	open = seconds * sz.OpenShare
	return open, seconds - open
}

// The graphs are fixed instances, not drawn from --seed: between draws
// the service time of one serve query differs by up to a fifth and the
// ingest solve's iteration count by as much (36 against 43), which would
// swamp the run-to-run spread the benchmark has to resolve. --seed drives
// everything sent to the resident graph.
const (
	serveGraphSeed  = 1
	ingestGraphSeed = 1
)

// genServeInputs builds the resident graph, writes it as an .mtx pair in
// dir and generates the request schedule for one serve workload.
func genServeInputs(workload string, seed int64, sz sizes, seconds, rate float64, dir string) (*serveInputs, error) {
	g, err := gen.PowerLaw(sz.ServeNodes, sz.ServeEdges, gen.Config{Seed: serveGraphSeed, States: states})
	if err != nil {
		return nil, err
	}
	in := &serveInputs{workload: workload, g: g, rate: rate}
	if err := in.writeFiles(dir, "serve"); err != nil {
		return nil, err
	}
	in.openSecs, in.closedSecs = phaseSecs(sz, seconds)
	rng := rand.New(rand.NewSource(seed*1000003 + 17))
	// The set-up query is a fixed instance too: it is a cold solve that
	// dominates set-up, and its cost moved with the evidence drawn (a
	// third between seeds on serve-churn). It is drawn from its own
	// generator so the seeded traffic stays as it was.
	fixed := rand.New(rand.NewSource(serveGraphSeed*1000003 + 29))
	n := g.NumNodes

	updateFrac, capRate := 0.0, sz.ClosedCapRate
	if workload == "serve-churn" {
		updateFrac, capRate = sz.ChurnUpdateFrac, sz.ChurnCapRate
	}
	in.open = poissonSchedule(rng, rate, in.openSecs, updateFrac)
	in.closed = mixList(int(math.Ceil(capRate*in.closedSecs)), updateFrac)
	nq := 0
	for _, list := range [][]item{in.open, in.closed} {
		for i := range list {
			if !list[i].isUpdate {
				list[i].q = nq
				nq++
			}
		}
	}

	switch workload {
	case "serve-drift":
		in.respNodes = distinctNodes(rng, n, sz.DriftNodes)
		k := fracCount(sz.DriftEvidence, n)
		in.warmup = encodeQuery(randomEvidence(fixed, n, states, k), in.respNodes)
		ch := newDriftChain(rng, n, states, k)
		toggles := fracCount(sz.DriftToggle, n)
		sample := oracleSample(seed, in.open, sz.OracleSamples)
		for i := 0; i < nq; i++ {
			ch.toggle(toggles)
			nodes := in.respNodes
			if sample[i] {
				nodes = nil
			}
			q := encodeQuery(ch.snapshot(), nodes)
			q.checked = sample[i]
			in.queries = append(in.queries, q)
		}
	case "serve-churn":
		k := fracCount(sz.ChurnEvidence, n)
		in.warmup = encodeQuery(randomEvidence(fixed, n, states, k), nil)
		for i := 0; i < nq; i++ {
			in.queries = append(in.queries, encodeQuery(randomEvidence(rng, n, states, k), nil))
		}
		for i := 0; i < sz.MirrorQueries; i++ {
			q := encodeQuery(randomEvidence(rng, n, states, k), nil)
			q.checked = true
			in.mirror = append(in.mirror, q)
		}
		nu := 0
		for _, list := range [][]item{in.open, in.closed} {
			for _, it := range list {
				if it.isUpdate {
					nu++
				}
			}
		}
		muts := gen.Mutations(g, nu*sz.UpdateOps, gen.Config{Seed: seed*31 + 7})
		for i := 0; i+sz.UpdateOps <= len(muts); i += sz.UpdateOps {
			u, err := encodeUpdate(muts[i : i+sz.UpdateOps])
			if err != nil {
				return nil, err
			}
			in.updates = append(in.updates, u)
		}
	default:
		return nil, fmt.Errorf("unknown serve workload %q", workload)
	}
	return in, nil
}

// writeFiles writes g as the workload's .mtx pair and records its size.
func (in *serveInputs) writeFiles(dir, stem string) error {
	var err error
	in.nodesPath, in.edgesPath, in.fileBytes, err = writePair(dir, stem, in.g)
	return err
}

func writePair(dir, stem string, g *graph.Graph) (nodes, edges string, size int64, err error) {
	nodes = filepath.Join(dir, stem+".nodes.mtx")
	edges = filepath.Join(dir, stem+".edges.mtx")
	if err = mtxbp.WriteFiles(nodes, edges, g); err != nil {
		return "", "", 0, err
	}
	for _, p := range []string{nodes, edges} {
		st, err := os.Stat(p)
		if err != nil {
			return "", "", 0, err
		}
		size += st.Size()
	}
	return nodes, edges, size, nil
}

// oracleSample picks, from the seed, which open-loop drift queries ask
// for the full posterior and are checked by the oracle after the run.
// The answer check needs every node: it re-converges BP from the served
// beliefs (see checkFixpoint).
func oracleSample(seed int64, open []item, k int) map[int]bool {
	var idx []int
	for _, it := range open {
		if !it.isUpdate {
			idx = append(idx, it.q)
		}
	}
	rng := rand.New(rand.NewSource(seed*7 + 3))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	sample := make(map[int]bool, k)
	for _, q := range idx[:min(len(idx), k)] {
		sample[q] = true
	}
	return sample
}

// poissonSchedule draws open-loop arrivals at rate per second over secs
// with the query/update mix of mixKinds. It is a Poisson process
// conditioned on its expected count (that many sorted uniform arrival
// times), so every seed offers the same load and holds the same number
// of retained responses; only the arrival pattern moves with the seed.
func poissonSchedule(rng *rand.Rand, rate, secs, updateFrac float64) []item {
	ts := make([]float64, int(math.Round(rate*secs)))
	for i := range ts {
		ts[i] = rng.Float64() * secs
	}
	sort.Float64s(ts)
	out := make([]item, len(ts))
	for i, t := range ts {
		out[i].due = time.Duration(t * float64(time.Second))
	}
	return mixKinds(out, updateFrac)
}

// mixList is n closed-loop requests with the same mix.
func mixList(n int, updateFrac float64) []item {
	return mixKinds(make([]item, n), updateFrac)
}

// mixKinds marks updateFrac of the items as updates, evenly spaced, so
// every seed and every stretch of the schedule carries the same mix.
func mixKinds(items []item, updateFrac float64) []item {
	acc := 0.0
	for i := range items {
		acc += updateFrac
		if acc >= 1-1e-9 {
			items[i].isUpdate = true
			acc--
		}
	}
	return items
}

func fracCount(frac float64, n int) int {
	k := int(math.Round(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

func distinctNodes(rng *rand.Rand, n, k int) []int32 {
	perm := rng.Perm(n)[:k]
	out := make([]int32, k)
	for i, v := range perm {
		out[i] = int32(v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func randomEvidence(rng *rand.Rand, n, states, k int) []evidence {
	nodes := distinctNodes(rng, n, k)
	ev := make([]evidence, k)
	for i, v := range nodes {
		ev[i] = evidence{node: v, state: int32(rng.Intn(states))}
	}
	return ev
}

// driftChain is the evolving evidence set of serve-drift: every query
// toggles a few clamps of the previous one, lifting one when the set is
// at or above its initial size and adding one below it, so the set holds
// its size instead of random-walking away from it.
type driftChain struct {
	rng     *rand.Rand
	states  int
	target  int
	clamp   []int32 // per node, -1 = unclamped
	present []int32
	pos     []int32 // index of a clamped node in present
}

func newDriftChain(rng *rand.Rand, n, states, initial int) *driftChain {
	c := &driftChain{rng: rng, states: states, target: initial, clamp: make([]int32, n), pos: make([]int32, n)}
	for i := range c.clamp {
		c.clamp[i] = -1
	}
	for _, v := range distinctNodes(rng, n, initial) {
		c.add(v)
	}
	return c
}

func (c *driftChain) add(v int32) {
	c.clamp[v] = int32(c.rng.Intn(c.states))
	c.pos[v] = int32(len(c.present))
	c.present = append(c.present, v)
}

func (c *driftChain) remove(v int32) {
	i := c.pos[v]
	last := c.present[len(c.present)-1]
	c.present[i] = last
	c.pos[last] = i
	c.present = c.present[:len(c.present)-1]
	c.clamp[v] = -1
}

func (c *driftChain) toggle(k int) {
	for i := 0; i < k; i++ {
		if len(c.present) >= c.target {
			c.remove(c.present[c.rng.Intn(len(c.present))])
			continue
		}
		for {
			v := int32(c.rng.Intn(len(c.clamp)))
			if c.clamp[v] < 0 {
				c.add(v)
				break
			}
		}
	}
}

func (c *driftChain) snapshot() []evidence {
	ev := make([]evidence, 0, len(c.present))
	for v, s := range c.clamp {
		if s >= 0 {
			ev = append(ev, evidence{node: int32(v), state: s})
		}
	}
	return ev
}

// encodeQuery writes the /v1/query body for ev (node order) and the
// requested nodes (nil omits "nodes", asking for the full posterior).
func encodeQuery(ev []evidence, nodes []int32) query {
	b := make([]byte, 0, 32+28*len(ev)+12*len(nodes))
	b = append(b, `{"evidence":[`...)
	for i, e := range ev {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"node":"`...)
		b = strconv.AppendInt(b, int64(e.node), 10)
		b = append(b, `","state":`...)
		b = strconv.AppendInt(b, int64(e.state), 10)
		b = append(b, '}')
	}
	b = append(b, ']')
	if nodes != nil {
		b = append(b, `,"nodes":[`...)
		for i, v := range nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	return query{body: b, ev: ev, nodes: nodes}
}

// updateOp mirrors the /v1/update wire shape.
type updateOp struct {
	Op    string    `json:"op"`
	Node  string    `json:"node,omitempty"`
	State *int      `json:"state,omitempty"`
	Prior []float32 `json:"prior,omitempty"`
	Src   string    `json:"src,omitempty"`
	Dst   string    `json:"dst,omitempty"`
	Mat   []float32 `json:"mat,omitempty"`
}

func encodeUpdate(muts []gen.Mutation) (update, error) {
	ops := make([]updateOp, len(muts))
	for i, m := range muts {
		id := func(v int32) string { return strconv.Itoa(int(v)) }
		switch m.Kind {
		case gen.MutEvidence:
			s := m.State
			ops[i] = updateOp{Op: "evidence", Node: id(m.Node), State: &s}
		case gen.MutRetract:
			ops[i] = updateOp{Op: "retract", Node: id(m.Node)}
		case gen.MutPrior:
			ops[i] = updateOp{Op: "prior", Node: id(m.Node), Prior: m.Prior}
		case gen.MutAddEdge:
			ops[i] = updateOp{Op: "edge", Src: id(m.Src), Dst: id(m.Dst)}
			if m.Mat != nil {
				ops[i].Mat = m.Mat.Data
			}
		default:
			return update{}, fmt.Errorf("unknown mutation kind %v", m.Kind)
		}
	}
	body, err := json.Marshal(struct {
		Updates []updateOp `json:"updates"`
	}{ops})
	return update{body: body, muts: muts}, err
}

// ingestInputs is the ingest-solve input: the generated graph (the
// bit-identity reference) and its .mtx pair.
type ingestInputs struct {
	g                    *graph.Graph
	nodesPath, edgesPath string
	fileBytes            int64
}

func genIngestInputs(sz sizes, dir string) (*ingestInputs, error) {
	g, err := gen.Synthetic(sz.IngestNodes, sz.IngestEdges, gen.Config{Seed: ingestGraphSeed, States: states})
	if err != nil {
		return nil, err
	}
	in := &ingestInputs{g: g}
	in.nodesPath, in.edgesPath, in.fileBytes, err = writePair(dir, "ingest", g)
	return in, err
}
