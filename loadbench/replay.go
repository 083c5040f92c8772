package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/rrset"
	"comic/internal/server"
	"comic/internal/solver"
)

// Server settings the replay mirrors: comic-serve's flag defaults, and the
// constants server.New and the PATCH handler apply.
const (
	cacheBytes         = 256 << 20 // -cache-mb
	maxBuilds          = 4         // -max-builds
	maxK               = 500       // -max-k; server.New memoizes orders this deep
	maxTheta           = 2_000_000 // -max-theta
	greedyRuns         = 200       // -greedy-mc
	repairMaxDirtyFrac = 0.5       // the PATCH handler's repair threshold
)

// answer is the part of a solve response that the request determines: the
// seeds, objective and chosen candidate, plus the candidates behind them.
// Both the server's body and the replay's solver.Result reduce to it, so a
// byte comparison of the two encodings is a comparison of the answers.
type answer struct {
	Seeds      []int32     `json:"seeds"`
	Objective  float64     `json:"objective"`
	Chosen     string      `json:"chosen"`
	UpperRatio float64     `json:"upperRatio,omitempty"`
	Candidates []candidate `json:"candidates"`
}

type candidate struct {
	Name      string  `json:"name"`
	Seeds     []int32 `json:"seeds"`
	Objective float64 `json:"objective"`
	Theta     int     `json:"theta,omitempty"`
}

// canonicalAnswer reduces a solve response body to its encoded answer.
func canonicalAnswer(body []byte) ([]byte, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, err
	}
	return json.Marshal(a)
}

func answerOf(res *solver.Result) answer {
	a := answer{Seeds: res.Seeds, Objective: res.Objective, Chosen: res.Chosen, UpperRatio: res.UpperRatio}
	for _, c := range res.Candidates {
		sc := candidate{Name: c.Name, Seeds: c.Seeds, Objective: c.Objective}
		if c.Stats != nil {
			sc.Theta = c.Stats.Theta
		}
		a.Candidates = append(a.Candidates, sc)
	}
	return a
}

// patchOutcome is the part of a PATCH response that the patch determines.
type patchOutcome struct {
	Generation int64                `json:"generation"`
	Repair     server.RepairSummary `json:"repair"`
}

func canonicalPatch(body []byte) ([]byte, error) {
	var p patchOutcome
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// replayOut is one op's answers as the replay computed them.
type replayOut struct {
	answer []byte
	patch  []byte // nil for an op without a patch
	err    error
}

// replayer runs ops in process, one at a time, through the public
// functions the server's handlers call: solver.Solve* over a
// server.NewIndex set up as server.New sets it up, graph.ApplyUpdates plus
// Index.RepairGraph for a patch, and json.Marshal for the encode. With a
// tracer it records a span around each of those calls.
type replayer struct {
	ds     map[string]*datasets.Dataset
	graphs map[string]*graph.Graph // current generation, by dataset
	gens   map[string]int64
	index  *server.Index
	traced *tracedIndex // nil when not tracing
	tr     *tracer      // nil when not tracing
}

func newReplayer(ds map[string]*datasets.Dataset, tr *tracer) *replayer {
	x := server.NewIndex(cacheBytes)
	x.SetBuildLimit(maxBuilds)
	x.SetMaxOrderK(maxK)
	r := &replayer{ds: ds, graphs: map[string]*graph.Graph{}, gens: map[string]int64{}, index: x, tr: tr}
	for name, d := range ds {
		r.graphs[name] = d.Graph
	}
	if tr != nil {
		r.traced = &tracedIndex{x: x, tr: tr, ordered: map[weak.Pointer[rrset.Collection]]bool{}}
	}
	return r
}

// graphID keys a dataset generation in the index, as the server's
// versioned registry IDs do.
func graphID(dataset string, gen int64) string { return fmt.Sprintf("%s@%d", dataset, gen) }

// begin and end are the tracer's, or no-ops without one.
func (r *replayer) begin(name string, parent, opID int) span {
	if r.tr == nil {
		return span{}
	}
	return r.tr.begin(name, parent, opID)
}

func (r *replayer) end(s span, attrs map[string]float64) {
	if r.tr != nil {
		r.tr.end(s, attrs)
	}
}

// run replays one op.
func (r *replayer) run(o op) (out replayOut) {
	root := r.begin("op", 0, o.ID)
	defer r.end(root, nil)
	if p := o.Patch; p != nil {
		g := r.graphs[p.Dataset]
		ups := make([]graph.EdgeUpdate, len(p.Updates))
		for i, u := range p.Updates {
			ups[i] = graph.EdgeUpdate{Op: graph.UpdateOp(u.Op), U: u.U, V: u.V, P: u.P}
		}
		s := r.begin("graph.apply", root.ID, o.ID)
		ng, delta, err := g.ApplyUpdates(ups)
		r.end(s, nil)
		if err != nil {
			out.err = err
			return out
		}
		gen := r.gens[p.Dataset] + 1
		s = r.begin("server.repair_graph", root.ID, o.ID)
		sum := r.index.RepairGraph(g, ng, graphID(p.Dataset, gen), delta, repairMaxDirtyFrac)
		r.end(s, map[string]float64{"reusedSets": float64(sum.ReusedSets), "repairedSets": float64(sum.RepairedSets)})
		r.graphs[p.Dataset], r.gens[p.Dataset] = ng, gen
		if out.patch, out.err = json.Marshal(patchOutcome{Generation: gen, Repair: sum}); out.err != nil {
			return out
		}
	}

	q := o.Solve
	cfg := solver.NewConfig(q.K)
	cfg.TIM.FixedTheta = q.FixedTheta
	cfg.TIM.MaxTheta = maxTheta
	cfg.EvalRuns = q.EvalRuns
	cfg.GreedyRuns = greedyRuns
	cfg.MaxGreedyNodes = solver.DefaultMaxGreedyNodes
	cfg.Seed = q.Seed
	cfg.GraphID = graphID(q.Dataset, r.gens[q.Dataset])
	cfg.Collections = r.index
	g, gap := r.graphs[q.Dataset], r.ds[q.Dataset].GAP

	s := r.begin("solver.solve", root.ID, o.ID)
	if r.traced != nil {
		cfg.Collections = r.traced
		r.traced.parent.Store(int64(s.ID))
		r.traced.op.Store(int64(o.ID))
	}
	var res *solver.Result
	var err error
	if q.Problem == "comp" {
		res, err = solver.SolveCompInfMax(g, gap, q.opposite(), cfg)
	} else {
		res, err = solver.SolveSelfInfMax(g, gap, q.opposite(), cfg)
	}
	if err != nil {
		r.end(s, nil)
		out.err = err
		return out
	}
	// Monte-Carlo runs: every candidate is scored once, and the sandwich
	// also scores the upper candidate under the upper-bound GAP.
	passes := len(res.Candidates)
	if res.Plan.Algorithm == solver.AlgoSandwich {
		passes++
	}
	r.end(s, map[string]float64{"sims": float64(passes * cfg.EvalRuns)})

	s = r.begin("server.encode", root.ID, o.ID)
	out.answer, out.err = json.Marshal(answerOf(res))
	r.end(s, nil)
	return out
}

// tracedIndex wraps the server's index as the solver's collection provider
// and seed selector, recording a span per collection lookup and per seed
// selection. A lookup that built its collection is told from a hit by its
// duration: a build spans at least the collection's own KPT and generation
// time, a hit takes microseconds. An ordering is built on the first
// selection over each collection, which the weak set tracks.
type tracedIndex struct {
	x      *server.Index
	tr     *tracer
	parent atomic.Int64 // the solve span of the op being replayed
	op     atomic.Int64

	mu      sync.Mutex
	ordered map[weak.Pointer[rrset.Collection]]bool
}

func (t *tracedIndex) Collection(req rrset.CollectionRequest) (*rrset.Collection, error) {
	s := t.tr.begin("rrset.collection", int(t.parent.Load()), int(t.op.Load()))
	col, err := t.x.Collection(req)
	var attrs map[string]float64
	if err == nil && time.Duration(int64(time.Since(t.tr.origin))-s.Start) >= col.KPTDuration+col.GenDuration {
		attrs = map[string]float64{
			"build": 1,
			"kptMs": ms(col.KPTDuration),
			"genMs": ms(col.GenDuration),
			"theta": float64(col.Theta),
			"bytes": float64(col.Bytes()),
		}
	}
	t.tr.end(s, attrs)
	return col, err
}

func (t *tracedIndex) SelectSeeds(req rrset.CollectionRequest, n, k int) ([]int32, *rrset.Stats, error) {
	col, err := t.Collection(req)
	if err != nil {
		return nil, nil, err
	}
	s := t.tr.begin("rrset.select", int(t.parent.Load()), int(t.op.Load()))
	seeds, st, err := t.x.SelectSeeds(req, n, k)
	var attrs map[string]float64
	if err == nil && t.firstSelection(col) {
		attrs = map[string]float64{"orderBuild": 1, "selectMs": ms(st.SelectDuration)}
	}
	t.tr.end(s, attrs)
	return seeds, st, err
}

// firstSelection reports whether col is selected over for the first time.
func (t *tracedIndex) firstSelection(col *rrset.Collection) bool {
	w := weak.Make(col)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ordered[w] {
		return false
	}
	t.ordered[w] = true
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
