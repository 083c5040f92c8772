package core

import (
	"comic/internal/graph"
	"comic/internal/rng"
)

// Draws is the possible world (§5.1) one run reads: a coin per edge, a
// threshold α per node and item, a tie-break rank per edge, and a seed coin
// per dual seed. The Figure 2 diffusion (Simulator), the RR-set generators
// of §6 and the k-item simulator all take their randomness from one.
//
// The world is either injected (SetWorld) or, by default, drawn from the
// run's RNG by deferred decisions: an edge coin or a threshold is drawn the
// first time it is read after Begin and kept until the next Begin, so a
// second read sees the same value. Ranks and seed coins are drawn on every
// read, and a run reads each one at most once: one rank per edge and
// diffusion step, one coin per dual seed. A Draws is not safe for concurrent
// use.
type Draws struct {
	g     *graph.Graph
	world *World
	r     *rng.RNG
	k     int // thresholds per node

	epoch uint32
	// edge packs each edge's memo word as epoch<<2 | state (state 1 live,
	// 2 blocked): the stamp check and the state read in EdgeLive — the
	// hottest loads in RR-set generation — touch one cache line, not two
	// parallel arrays.
	edge []uint32
	// alpha[v·k + i] is node v's threshold for item i, drawn in this run
	// when alphaAt[v·k + i] == epoch.
	alpha   []float64
	alphaAt []uint32
}

// wrapEpoch is the first epoch an edge memo word cannot hold: it keeps 30
// epoch bits.
const wrapEpoch = 1 << 30

// NewDraws returns lazy draws for g with k thresholds per node: 2 in the
// two-item model (A and B), k in the k-item extension.
func NewDraws(g *graph.Graph, k int) Draws {
	return Draws{
		g:       g,
		k:       k,
		edge:    make([]uint32, g.M()),
		alpha:   make([]float64, g.N()*k),
		alphaAt: make([]uint32, g.N()*k),
	}
}

// Graph returns the graph the draws are for.
func (d *Draws) Graph() *graph.Graph { return d.g }

// World returns the injected world, or nil when draws are lazy.
func (d *Draws) World() *World { return d.world }

// SetWorld makes every draw read w (nil restores lazy draws). w must have
// been sampled for the graph: SetWorld panics otherwise (World.MustFit). A
// World holds two items' thresholds, so only two-item draws take one.
func (d *Draws) SetWorld(w *World) {
	if w != nil {
		w.MustFit(d.g)
	}
	d.world = w
}

// Begin starts a run that draws lazily from r, or reads the injected world
// (r may then be nil). It forgets every coin and threshold drawn before.
func (d *Draws) Begin(r *rng.RNG) {
	if d.world == nil && r == nil {
		panic("core: lazy draws require an RNG")
	}
	d.r = r
	d.epoch++
	if d.epoch == wrapEpoch {
		clear(d.edge)
		clear(d.alphaAt)
		d.epoch = 1
	}
}

// EdgeLive reports whether edge eid is live: its one coin flip (Figure 2,
// step 1).
func (d *Draws) EdgeLive(eid int32) bool {
	if d.world != nil {
		return d.world.EdgeLive[eid]
	}
	w := d.edge[eid]
	if w>>2 != d.epoch {
		if d.r.Bernoulli(d.g.Prob(eid)) {
			w = d.epoch<<2 | 1
		} else {
			w = d.epoch<<2 | 2
		}
		d.edge[eid] = w
	}
	return w&3 == 1
}

// Alpha returns node v's threshold for item it: A or B in the two-item
// model, an item index in the k-item extension.
func (d *Draws) Alpha(v int32, it Item) float64 {
	if d.world != nil {
		if it == A {
			return d.world.AlphaA[v]
		}
		return d.world.AlphaB[v]
	}
	j := int(v)*d.k + int(it)
	if d.alphaAt[j] != d.epoch {
		d.alphaAt[j] = d.epoch
		d.alpha[j] = d.r.Float64()
	}
	return d.alpha[j]
}

// Rank returns edge eid's tie-break rank (Figure 2, step 2): among the
// in-neighbors informing one node, lower ranks inform first.
func (d *Draws) Rank(eid int32) float64 {
	if d.world != nil {
		return d.world.EdgeRank[eid]
	}
	return d.r.Float64()
}

// SeedFirst returns τ_v, the item dual seed v adopts first.
func (d *Draws) SeedFirst(v int32) Item {
	if d.world != nil {
		return d.world.SeedFirst[v]
	}
	if d.r.Bernoulli(0.5) {
		return A
	}
	return B
}
