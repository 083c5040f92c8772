package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"comic/internal/datasets"
)

// The served fleet. Both the child server and the in-process replay build
// exactly these graphs.
const (
	flixster     = "Flixster"
	doubanBook   = "Douban-Book"
	datasetScale = 0.02
	datasetSeed  = 1

	solveK        = 10
	oppositeSize  = 10
	cimTheta      = 20000
	patchEdges    = 8
	warmEvalRuns  = 1000
	coldEvalRuns  = 200
	patchEvalRuns = 200
)

// solveReq is the body of POST /v1/selfinfmax (Problem "self", opposite set
// in SeedsB) or /v1/compinfmax (Problem "comp", opposite set in SeedsA).
type solveReq struct {
	Problem    string  `json:"-"`
	Dataset    string  `json:"dataset"`
	K          int     `json:"k"`
	SeedsA     []int32 `json:"seedsA,omitempty"`
	SeedsB     []int32 `json:"seedsB,omitempty"`
	FixedTheta int     `json:"fixedTheta,omitempty"`
	EvalRuns   int     `json:"evalRuns"`
	Seed       uint64  `json:"seed"`
}

// opposite returns the fixed seed set of the other item.
func (r solveReq) opposite() []int32 {
	if r.Problem == "comp" {
		return r.SeedsA
	}
	return r.SeedsB
}

// path is the endpoint the request is posted to.
func (r solveReq) path() string {
	if r.Problem == "comp" {
		return "/v1/compinfmax"
	}
	return "/v1/selfinfmax"
}

// edgeUpdate is one reweight in a PATCH /v1/graphs/{name}/edges batch.
type edgeUpdate struct {
	Op string  `json:"op"`
	U  int32   `json:"u"`
	V  int32   `json:"v"`
	P  float64 `json:"p"`
}

// patchReq is the body of PATCH /v1/graphs/{Dataset}/edges. IfGeneration
// pins the generation the batch applies to, so an out-of-order apply is a
// 409, not a silently different graph.
type patchReq struct {
	Dataset      string       `json:"-"`
	Updates      []edgeUpdate `json:"updates"`
	IfGeneration int64        `json:"ifGeneration"`
}

// op is one unit of client work and the unit every latency is measured
// over: a solve, or on patch-stream a patch followed by the solve that must
// read the patched generation.
type op struct {
	ID int `json:"id"`
	// Config indexes workload.warmup on warm-solve, whose ops repeat the
	// pre-warmed solves; -1 elsewhere.
	Config int       `json:"config"`
	Patch  *patchReq `json:"patch,omitempty"`
	Solve  solveReq  `json:"solve"`
}

// workload is one traffic mix: the solves setup runs before timing starts,
// the client count, and the deterministic op stream. The stream is drawn
// only from the seed and the graphs, never from the program under test's
// random sources, so a change to the program cannot change the inputs.
type workload struct {
	name    string
	clients int
	warmup  []solveReq
	// setups is how many times an untraced run sets the server up; setup_s
	// is their median.
	setups int

	mu  sync.Mutex
	gen func(id int) op
	n   int
}

// next returns the next op of the stream. Clients share one stream, so the
// sequence of ops handed out is identical on every run with the seed.
func (w *workload) next() op {
	w.mu.Lock()
	defer w.mu.Unlock()
	o := w.gen(w.n)
	w.n++
	return o
}

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"warm-solve", "cold-solve", "patch-stream"}

// loadDatasets builds the served fleet in process, exactly as comic-serve
// does from its flags.
func loadDatasets() (map[string]*datasets.Dataset, error) {
	out := map[string]*datasets.Dataset{}
	for _, name := range []string{flixster, doubanBook} {
		d, err := datasets.ByName(name, datasetScale, datasetSeed)
		if err != nil {
			return nil, err
		}
		out[name] = d
	}
	return out, nil
}

// hotSeed draws the solves that warm-solve and patch-stream repeat. They
// are part of the workload's definition, not of its traffic: with them
// fixed, every run repeats the same solves and the seed varies only the
// traffic around them (the order of warm-solve's ops, patch-stream's
// patches), so two runs with different seeds do the same work.
const hotSeed = 0x5eed

// newWorkload returns the named workload's op stream for seed.
func newWorkload(name string, seed uint64, ds map[string]*datasets.Dataset) (*workload, error) {
	r := rand.New(rand.NewPCG(seed, 0x10adbe7c))
	hot := rand.New(rand.NewPCG(hotSeed, 0x10adbe7c))
	nodes := func(d string) int { return ds[d].Graph.N() }
	switch name {
	case "warm-solve":
		return warmSolve(hot, r, nodes), nil
	case "cold-solve":
		return coldSolve(r, nodes), nil
	case "patch-stream":
		return patchStream(hot, r, ds[flixster]), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// drawSet draws size distinct nodes of [0, n), in draw order.
func drawSet(r *rand.Rand, n, size int) []int32 {
	seen := map[int32]bool{}
	out := make([]int32, 0, size)
	for len(out) < size {
		v := int32(r.IntN(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// masterSeed draws a solve's master seed.
func masterSeed(r *rand.Rand) uint64 { return r.Uint64N(1 << 31) }

func selfReq(r *rand.Rand, dataset string, n, evalRuns int) solveReq {
	return solveReq{Problem: "self", Dataset: dataset, K: solveK,
		SeedsB: drawSet(r, n, oppositeSize), EvalRuns: evalRuns, Seed: masterSeed(r)}
}

func compReq(r *rand.Rand, dataset string, n, evalRuns int) solveReq {
	return solveReq{Problem: "comp", Dataset: dataset, K: solveK,
		SeedsA: drawSet(r, n, oppositeSize), FixedTheta: cimTheta, EvalRuns: evalRuns, Seed: masterSeed(r)}
}

// warmSolve repeats six pre-warmed solves: per dataset two SelfInfMax with
// different opposite sets and one CompInfMax, drawn from hot. Ops come in
// blocks of six holding each config once, in an order drawn from r, so
// every run scores the same mix.
func warmSolve(hot, r *rand.Rand, nodes func(string) int) *workload {
	var cfgs []solveReq
	for _, d := range []string{flixster, doubanBook} {
		cfgs = append(cfgs,
			selfReq(hot, d, nodes(d), warmEvalRuns),
			selfReq(hot, d, nodes(d), warmEvalRuns),
			compReq(hot, d, nodes(d), warmEvalRuns))
	}
	var block []int
	return &workload{name: "warm-solve", clients: 2, warmup: cfgs, setups: 3, gen: func(id int) op {
		if len(block) == 0 {
			block = r.Perm(len(cfgs))
		}
		c := block[0]
		block = block[1:]
		return op{ID: id, Config: c, Solve: cfgs[c]}
	}}
}

// coldSolve never repeats an (opposite set, master seed) pair, so every op
// misses the RR-set index. Every fourth op is a CompInfMax; datasets
// alternate, shifted once per four ops so CompInfMax alternates too.
func coldSolve(r *rand.Rand, nodes func(string) int) *workload {
	return &workload{name: "cold-solve", clients: 1, setups: 9, gen: func(id int) op {
		d := []string{flixster, doubanBook}[(id+id/4)%2]
		if id%4 == 3 {
			return op{ID: id, Config: -1, Solve: compReq(r, d, nodes(d), coldEvalRuns)}
		}
		return op{ID: id, Config: -1, Solve: selfReq(r, d, nodes(d), coldEvalRuns)}
	}}
}

// patchStream reweights patchEdges distinct Flixster edges per op, drawn
// from r, each by a factor in [0.5, 1.5) clamped to [0.01, 0.99], then
// repeats the one SelfInfMax, drawn from hot, that setup warmed and that
// must read the patched generation.
func patchStream(hot, r *rand.Rand, d *datasets.Dataset) *workload {
	g := d.Graph
	type edge struct {
		u, v int32
		p    float64
	}
	edges := make([]edge, g.M())
	for e := range edges {
		u, v := g.EdgeEndpoints(int32(e))
		edges[e] = edge{u, v, g.Prob(int32(e))}
	}
	solve := selfReq(hot, flixster, g.N(), patchEvalRuns)
	return &workload{name: "patch-stream", clients: 1, warmup: []solveReq{solve}, setups: 5, gen: func(id int) op {
		p := &patchReq{Dataset: flixster, IfGeneration: int64(id)}
		for _, e := range drawSet(r, len(edges), patchEdges) {
			np := min(max(edges[e].p*(0.5+r.Float64()), 0.01), 0.99)
			edges[e].p = np
			p.Updates = append(p.Updates, edgeUpdate{Op: "reweight", U: edges[e].u, V: edges[e].v, P: np})
		}
		return op{ID: id, Config: -1, Patch: p, Solve: solve}
	}}
}
