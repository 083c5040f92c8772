package rrset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// collectionGolden is what TestCollectionGolden pins for one build: an
// FNV-64a digest of the coverage index (per-node offsets and set ids), θ,
// the KPT and λ bits, the node and width totals, and both phases'
// exploration counters.
type collectionGolden struct {
	digest                 uint64
	theta                  int
	kpt, lambda            uint64
	totalNodes, totalWidth int64
	explored, exploredK    Counters
}

// goldenOf reads col's pinned quantities.
func goldenOf(t *testing.T, col *Collection) collectionGolden {
	h := fnv.New64a()
	for _, arr := range []any{col.cover.off, col.cover.sets} {
		if err := binary.Write(h, binary.LittleEndian, arr); err != nil {
			t.Fatal(err)
		}
	}
	return collectionGolden{
		digest:     h.Sum64(),
		theta:      col.Theta,
		kpt:        math.Float64bits(col.KPT),
		lambda:     math.Float64bits(col.Lambda),
		totalNodes: col.TotalNodes,
		totalWidth: col.TotalWidth,
		explored:   col.Explored,
		exploredK:  col.ExploredKPT,
	}
}

// String formats g as a row of TestCollectionGolden's table, ready to
// paste when a deliberate re-baseline moves it.
func (g collectionGolden) String() string {
	lit := func(c Counters) string {
		return fmt.Sprintf("Counters{%d, %d, %d, %d, %d, %d}",
			c.EdgesForward, c.EdgesBackward, c.EdgesBackwardFirst, c.EdgesSecondary, c.Sets, c.EmptySets)
	}
	return fmt.Sprintf("{%#x, %d, %#x, %#x, %d, %d,\n\t%s, %s}",
		g.digest, g.theta, g.kpt, g.lambda, g.totalNodes, g.totalWidth, lit(g.explored), lit(g.exploredK))
}

// TestCollectionGolden pins what BuildCollection keeps for each generator
// kind under four builds: θ derived from KPT at one and at three workers,
// a fixed θ, and a build on an injected possible world. The coverage index
// records which sets hold each node, and the totals and counters record
// every width and every edge examined, so a refactor of the generators or
// of the build loop that moves a draw fails here. The order of nodes
// within a set, its root and its own width are not pinned: selection reads
// none of them.
func TestCollectionGolden(t *testing.T) {
	g := graph.PowerLaw(150, 5, 2.16, true, rng.New(21))
	graph.AssignWeightedCascade(g)
	world := core.SampleWorld(g, rng.New(22))
	selfGAP := core.GAP{QA0: 0.3, QAB: 0.8, QB0: 0.5, QBA: 0.5}
	compGAP := core.GAP{QA0: 0.1, QAB: 0.9, QB0: 0.5, QBA: 1}
	opp := []int32{1, 2, 3, 40}
	builds := []struct {
		name  string
		opts  Options
		world bool
	}{
		{"derived-w1", Options{Epsilon: 1, Workers: 1}, false},
		{"derived-w3", Options{Epsilon: 1, Workers: 3}, false},
		{"fixed", Options{FixedTheta: 2500, Workers: 2}, false},
		{"world", Options{Epsilon: 1, Workers: 3}, true},
	}
	want := map[string]collectionGolden{
		"ic/derived-w1": {0x1df1f33401f6ad11, 2103, 0x4030129d3eb86b85, 0x40e07ffdd8543477, 8547, 84443,
			Counters{0, 84443, 0, 0, 2103, 0}, Counters{0, 24009, 0, 0, 588, 0}},
		"ic/derived-w3": {0x1df1f33401f6ad11, 2103, 0x4030129d3eb86b85, 0x40e07ffdd8543477, 8547, 84443,
			Counters{0, 84443, 0, 0, 2103, 0}, Counters{0, 24009, 0, 0, 588, 0}},
		"ic/fixed": {0x3248659d16f31163, 2500, 0x0, 0x0, 10180, 100388,
			Counters{0, 100388, 0, 0, 2500, 0}, Counters{0, 0, 0, 0, 0, 0}},
		"ic/world": {0xd0976a2f0f92c361, 1344, 0x403926335c0f3a86, 0x40e07ffdd8543477, 12365, 113568,
			Counters{0, 113568, 0, 0, 1344, 0}, Counters{0, 22467, 0, 0, 252, 0}},
		"sim/derived-w1": {0xfe3a4ea0baf9ddb3, 6512, 0x4014c1e857395b53, 0x40e07ffdd8543477, 10433, 78028,
			Counters{646266, 37797, 0, 0, 6512, 0}, Counters{256802, 14864, 0, 0, 2601, 0}},
		"sim/derived-w3": {0xfe3a4ea0baf9ddb3, 6512, 0x4014c1e857395b53, 0x40e07ffdd8543477, 10433, 78028,
			Counters{646266, 37797, 0, 0, 6512, 0}, Counters{256802, 14864, 0, 0, 2601, 0}},
		"sim/fixed": {0x79bca4e114e6aad0, 2500, 0x0, 0x0, 3994, 30477,
			Counters{248258, 14909, 0, 0, 2500, 0}, Counters{0, 0, 0, 0, 0, 0}},
		"sim/world": {0x82a33eb204ca1d72, 6446, 0x4014f89dd5055682, 0x40e07ffdd8543477, 11790, 90781,
			Counters{515680, 49157, 0, 0, 6446, 0}, Counters{100720, 8674, 0, 0, 1259, 0}},
		"sim+/derived-w1": {0x5413637b9575ab11, 6934, 0x40137eb1e672dbeb, 0x40e07ffdd8543477, 11007, 81303,
			Counters{12234, 38151, 252209, 0, 6934, 0}, Counters{2042, 6752, 45167, 0, 1259, 0}},
		"sim+/derived-w3": {0x5413637b9575ab11, 6934, 0x40137eb1e672dbeb, 0x40e07ffdd8543477, 11007, 81303,
			Counters{12234, 38151, 252209, 0, 6934, 0}, Counters{2042, 6752, 45167, 0, 1259, 0}},
		"sim+/fixed": {0xe8dafb97040cfaf6, 2500, 0x0, 0x0, 3852, 28276,
			Counters{4051, 13253, 87906, 0, 2500, 0}, Counters{0, 0, 0, 0, 0, 0}},
		"sim+/world": {0x82a33eb204ca1d72, 6446, 0x4014f89dd5055682, 0x40e07ffdd8543477, 11790, 90781,
			Counters{30446, 49157, 419702, 0, 6446, 0}, Counters{5844, 8674, 80581, 0, 1259, 0}},
		"cim/derived-w1": {0x92f700428a2a5c98, 20379, 0x3ffa87ef63de7d42, 0x40e07ffdd8543477, 8632, 93162,
			Counters{4039310, 10926, 0, 122398, 20379, 17332}, Counters{1038008, 2922, 0, 28480, 5285, 4508}},
		"cim/derived-w3": {0x92f700428a2a5c98, 20379, 0x3ffa87ef63de7d42, 0x40e07ffdd8543477, 8632, 93162,
			Counters{4039310, 10926, 0, 122398, 20379, 17332}, Counters{1038008, 2922, 0, 28480, 5285, 4508}},
		"cim/fixed": {0x88cf5a77a80bc474, 2500, 0x0, 0x0, 1057, 11565,
			Counters{496513, 1411, 0, 15452, 2500, 2122}, Counters{0, 0, 0, 0, 0, 0}},
		"cim/world": {0xfaa0290567265f9e, 23350, 0x3ff727c5788e7385, 0x40e07ffdd8543477, 7293, 78130,
			Counters{7145100, 13252, 0, 215727, 23350, 19892}, Counters{1617210, 3074, 0, 49488, 5285, 4524}},
	}
	for _, req := range []CollectionRequest{
		{Kind: KindIC},
		{Kind: KindSIM, GAP: selfGAP, Opposite: opp},
		{Kind: KindSIMPlus, GAP: selfGAP, Opposite: opp},
		{Kind: KindCIM, GAP: compGAP, Opposite: opp},
	} {
		req.Graph = g
		for _, b := range builds {
			name := string(req.Kind) + "/" + b.name
			gen, err := req.NewGenerator()
			if err != nil {
				t.Fatal(err)
			}
			if b.world {
				gen.SetWorld(world)
			}
			col := BuildCollection(gen, g.M(), 4, b.opts, 0x9017)
			if have := goldenOf(t, col); have != want[name] {
				t.Errorf("%s moved; it reads\n%q: %v,\nwant\n%q: %v,", name, name, have, name, want[name])
			}
		}
	}
}
