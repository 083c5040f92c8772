package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"comic"
	"comic/internal/cluster"
	"comic/internal/experiments"
	"comic/internal/server"
)

// clusterBenchRecord is the machine-readable output of the cluster
// experiment: the sharded-serving trajectory line. Placement is a pure
// function of graph names, content fingerprints and member IDs, so the
// ownership maps, the per-graph seeds, and every rebalance count are
// deterministic and pinned bit-for-bit; only the busy-time measurements
// (keys ending in "Ns") are runner-dependent and warn-only under -check.
//
// Throughput scaling is measured by busy-time accounting rather than wall
// clock: each node tracks the cumulative wall time it spends serving
// local requests, and cluster throughput is total work over the busiest
// node's busy time — on a real deployment every node's busy time is bound
// by its own machine, so the ratio singleBusy / maxClusterNodeBusy is the
// speedup an N-machine fleet realizes, measurable even on a single-core
// CI runner. The run itself fails if that ratio drops below 2.5 on three
// nodes, if any proxied solve diverges from the owner's by a byte, or if
// the rebalance rebuilds any collection instead of moving it.
type clusterBenchRecord struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	K          int     `json:"k"`
	Opposite   int     `json:"opposite"`
	Seed       uint64  `json:"seed"`
	MC         int     `json:"mc"`
	// Nodes and GraphNames fix the fleet: three members, and the graphs
	// selected (deterministically, from the synthetic candidate stream)
	// so that every node owns exactly GraphsPerNode of them.
	Nodes         []string `json:"nodes"`
	GraphNames    []string `json:"graphNames"`
	GraphsPerNode int      `json:"graphsPerNode"`
	// Ownership is the placement map under the three-node view, as served
	// by GET /v1/cluster; OwnershipAfter is the map after node n3 leaves.
	Ownership      map[string]string `json:"ownership"`
	OwnershipAfter map[string]string `json:"ownershipAfter"`
	// Seeds pins every graph's SelfInfMax selection. ProxiedChecks counts
	// the proxied solves compared byte-for-byte against the owner's
	// (two non-owners per graph); SeedDivergence is how many diverged,
	// pinned at zero — the determinism contract, observed cross-node.
	Seeds          map[string][]int32 `json:"seeds"`
	ProxiedChecks  int                `json:"proxiedChecks"`
	SeedDivergence int                `json:"seedDivergence"`
	// The rebalance: n3 leaves, its graphs move to the survivors through
	// the shared snapshot store. GraphsMoved counts graphs whose owner
	// changed; Published/Adopted count the cache entries that moved;
	// Rebuilds is the survivors' collection-build count across the whole
	// rebalance plus one post-rebalance solve per graph, pinned at zero —
	// warm state moves, it is never rebuilt.
	GraphsMoved        int `json:"graphsMoved"`
	RebalancePublished int `json:"rebalancePublished"`
	RebalanceAdopted   int `json:"rebalanceAdopted"`
	RebalanceRebuilds  int `json:"rebalanceRebuilds"`
	// Busy-time measurements (warn-only): the single node serving the
	// whole warm workload, and each cluster node serving its share of the
	// same workload (ClusterBusyNs is ordered by node ID).
	SingleBusyNs  int64   `json:"singleBusyNs"`
	ClusterBusyNs []int64 `json:"clusterBusyNs"`
	RebalanceNs   int64   `json:"rebalanceNs"`
}

// clusterNodeIDs is the bench fleet; n3 is the node the rebalance phase
// removes.
var clusterNodeIDs = []string{"n1", "n2", "n3"}

const (
	clusterGraphsPerNode = 3
	clusterWarmReps      = 5
	clusterMinSpeedup    = 2.5
)

// runClusterBench stands up a three-node in-process cluster over a shared
// snapshot store and pins the sharded serving path end to end: placement,
// proxied-solve byte parity, singleflight collapse, busy-time throughput
// scaling versus one node, and a zero-rebuild rebalance when a member
// leaves.
func runClusterBench(cfg experiments.Config) (*clusterBenchRecord, error) {
	base := "Flixster"
	if len(cfg.DatasetNames) > 0 {
		base = cfg.DatasetNames[0]
	}
	k := cfg.K
	if k <= 0 {
		k = 10
	}
	opp := cfg.OppositeSize
	if opp <= 0 {
		opp = 10
	}
	mc := cfg.MCRuns
	if mc <= 0 {
		mc = 1000
	}

	rec := &clusterBenchRecord{
		Experiment:    "cluster",
		Dataset:       base,
		Scale:         cfg.Scale,
		K:             k,
		Opposite:      opp,
		Seed:          cfg.Seed,
		MC:            mc,
		Nodes:         clusterNodeIDs,
		GraphsPerNode: clusterGraphsPerNode,
		Seeds:         map[string][]int32{},
	}

	selected, err := selectBalancedGraphs(base, cfg.Scale, clusterNodeIDs, clusterGraphsPerNode)
	if err != nil {
		return nil, err
	}
	for _, sg := range selected {
		rec.GraphNames = append(rec.GraphNames, sg.name)
	}
	queries := make(map[string][]byte, len(selected))
	for _, sg := range selected {
		body, mErr := json.Marshal(map[string]any{
			"dataset":  sg.name,
			"k":        k,
			"seedsB":   comic.HighDegreeSeeds(sg.dataset.Graph, opp),
			"evalRuns": mc,
			"seed":     cfg.Seed,
		})
		if mErr != nil {
			return nil, mErr
		}
		queries[sg.name] = body
	}

	// Phase 1: the whole fleet on one node — warm every graph, then serve
	// the repeated warm workload and account the node's busy time.
	soloNodes, err := newBenchCluster([]string{"n1"}, selected, nil)
	if err != nil {
		return nil, err
	}
	solo := soloNodes[0]
	defer solo.close()
	for _, sg := range selected {
		if _, warmErr := solveSeeds(solo.ts.URL, queries[sg.name]); warmErr != nil {
			return nil, fmt.Errorf("single-node warm %s: %w", sg.name, warmErr)
		}
	}
	soloBusy0 := solo.node.BusyNs()
	for rep := 0; rep < clusterWarmReps; rep++ {
		for _, sg := range selected {
			seeds, solveErr := solveSeeds(solo.ts.URL, queries[sg.name])
			if solveErr != nil {
				return nil, fmt.Errorf("single-node solve %s: %w", sg.name, solveErr)
			}
			if rep == 0 {
				rec.Seeds[sg.name] = seeds
			} else if fmt.Sprint(seeds) != fmt.Sprint(rec.Seeds[sg.name]) {
				return nil, fmt.Errorf("single-node solve %s not deterministic", sg.name)
			}
		}
	}
	rec.SingleBusyNs = solo.node.BusyNs() - soloBusy0
	solo.close()

	// Phase 2: the same fleet sharded across three nodes over a shared
	// snapshot store.
	storeDir, err := os.MkdirTemp("", "comic-cluster-bench-")
	if err != nil {
		return nil, err
	}
	//comic:allow errlost best-effort cleanup of a throwaway temp dir
	defer os.RemoveAll(storeDir)
	store, err := server.NewDirStore(storeDir)
	if err != nil {
		return nil, err
	}
	nodes, err := newBenchCluster(clusterNodeIDs, selected, store)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	byID := map[string]*benchNode{}
	for _, n := range nodes {
		byID[n.id] = n
	}

	// Every warm solve goes through n1: owned graphs are served locally,
	// the rest are proxied to their owner — so the owner builds (and
	// keeps) the warm state, wherever the request landed.
	for _, sg := range selected {
		if _, warmErr := solveSeeds(nodes[0].ts.URL, queries[sg.name]); warmErr != nil {
			return nil, fmt.Errorf("cluster warm %s: %w", sg.name, warmErr)
		}
	}

	// The placement map as clients see it, checked against the selection.
	ownership, err := fetchPlacement(nodes[0].ts.URL)
	if err != nil {
		return nil, err
	}
	rec.Ownership = ownership
	for _, sg := range selected {
		if ownership[sg.name] != sg.owner {
			return nil, fmt.Errorf("placement map says %s is owned by %q, selection computed %q",
				sg.name, ownership[sg.name], sg.owner)
		}
	}

	// Cross-node parity: the owner's answer and both proxied answers must
	// carry byte-identical seeds.
	for _, sg := range selected {
		direct, err := solveSeeds(byID[sg.owner].ts.URL, queries[sg.name])
		if err != nil {
			return nil, fmt.Errorf("direct solve %s: %w", sg.name, err)
		}
		if fmt.Sprint(direct) != fmt.Sprint(rec.Seeds[sg.name]) {
			rec.SeedDivergence++
		}
		for _, n := range nodes {
			if n.id == sg.owner {
				continue
			}
			rec.ProxiedChecks++
			proxied, err := solveSeeds(n.ts.URL, queries[sg.name])
			if err != nil {
				return nil, fmt.Errorf("proxied solve %s via %s: %w", sg.name, n.id, err)
			}
			if fmt.Sprint(proxied) != fmt.Sprint(direct) {
				rec.SeedDivergence++
			}
		}
	}
	if rec.SeedDivergence != 0 {
		return nil, fmt.Errorf("%d of %d cross-node solves diverged from the owner's seeds",
			rec.SeedDivergence, rec.ProxiedChecks)
	}

	// Router singleflight: identical slow estimates for a remote-owned
	// graph, fired concurrently at a non-owner, must collapse onto one
	// upstream call.
	if err := checkSingleflight(nodes, selected, cfg.Seed); err != nil {
		return nil, err
	}

	// The same warm workload, each query routed straight to its owner (the
	// smart-client path): each node's busy time covers only its own share.
	busy0 := make([]int64, len(nodes))
	for i, n := range nodes {
		busy0[i] = n.node.BusyNs()
	}
	for rep := 0; rep < clusterWarmReps; rep++ {
		for _, sg := range selected {
			seeds, err := solveSeeds(byID[sg.owner].ts.URL, queries[sg.name])
			if err != nil {
				return nil, fmt.Errorf("cluster solve %s: %w", sg.name, err)
			}
			if fmt.Sprint(seeds) != fmt.Sprint(rec.Seeds[sg.name]) {
				return nil, fmt.Errorf("cluster solve %s diverged from the single-node seeds", sg.name)
			}
		}
	}
	var maxBusy int64
	for i, n := range nodes {
		d := n.node.BusyNs() - busy0[i]
		rec.ClusterBusyNs = append(rec.ClusterBusyNs, d)
		if d > maxBusy {
			maxBusy = d
		}
	}
	if maxBusy <= 0 {
		return nil, fmt.Errorf("cluster busy-time accounting recorded no work")
	}
	speedup := float64(rec.SingleBusyNs) / float64(maxBusy)
	if speedup < clusterMinSpeedup {
		return nil, fmt.Errorf("3-node busy-time speedup %.2fx is below the %.1fx floor (single %v, busiest node %v)",
			speedup, clusterMinSpeedup, time.Duration(rec.SingleBusyNs), time.Duration(maxBusy))
	}

	// Phase 3: n3 leaves. Prepare everywhere (departing graphs' warm cache
	// entries are published to the shared store), commit on the survivors
	// (the view swaps; inherited graphs adopt the published entries). The
	// survivors must answer every graph — the inherited ones included —
	// without building a single collection.
	if err := rebalanceOut(rec, nodes, selected, queries); err != nil {
		return nil, err
	}
	return rec, nil
}

// selectedGraph is one member of the bench fleet: a deterministic
// synthetic stand-in, its registry fingerprint, and the owner placement
// assigns it under the three-node view.
type selectedGraph struct {
	name    string
	dataset *comic.Dataset
	owner   string
}

// selectBalancedGraphs walks the synthetic candidate stream (base dataset,
// increasing construction seed) and picks the first perNode graphs owned
// by each node, so the fleet is exactly balanced by construction — the
// selection is a pure function of the candidate graphs and member IDs.
func selectBalancedGraphs(base string, scale float64, nodeIDs []string, perNode int) ([]selectedGraph, error) {
	members := make([]cluster.Member, len(nodeIDs))
	for i, id := range nodeIDs {
		members[i] = cluster.Member{ID: id, URL: "http://" + id}
	}
	const maxCandidates = 40
	counts := map[string]int{}
	var out []selectedGraph
	cands := map[string]*comic.Dataset{}
	names := []string{}
	for s := uint64(1); s <= maxCandidates; s++ {
		d, err := comic.DatasetByName(base, scale, s)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s-%02d", base, s)
		cands[name] = comic.NewDataset(name, d.Graph, d.GAP, base)
		names = append(names, name)
	}
	// One throwaway registry assigns the candidates their content
	// fingerprints — the same fingerprints every bench node computes.
	probe, err := server.New(server.Config{Datasets: cands})
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	fingerprints := map[string]string{}
	for _, vi := range probe.GraphVersions() {
		fingerprints[vi.Name] = vi.Fingerprint
	}
	for _, name := range names {
		owner, ok := cluster.Owner(members, cluster.PlaceKey(name, fingerprints[name]))
		if !ok || counts[owner.ID] >= perNode {
			continue
		}
		counts[owner.ID]++
		out = append(out, selectedGraph{name: name, dataset: cands[name], owner: owner.ID})
		if len(out) == perNode*len(nodeIDs) {
			sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
			return out, nil
		}
	}
	return nil, fmt.Errorf("could not balance %d graphs per node over %d candidates (got %v)",
		perNode, maxCandidates, counts)
}

// benchNode is one in-process cluster member: a full server wrapped as a
// cluster node behind an httptest listener.
type benchNode struct {
	id   string
	node *cluster.Node
	ts   *httptest.Server
	srv  *server.Server
	once sync.Once
}

// handlerCell is an http.Handler whose target is installed after the
// listener is up — the member URLs must exist before the nodes that use
// them can be built.
type handlerCell struct {
	h atomic.Pointer[http.Handler]
}

func (c *handlerCell) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := c.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

// newBenchCluster builds the fleet: one listener per member first, then
// one full server + cluster node per member, every node serving the same
// graph inventory. A single-member list is the solo phase — same path,
// so busy-time accounting is identical in both phases.
func newBenchCluster(nodeIDs []string, fleet []selectedGraph, store server.SnapshotStore) ([]*benchNode, error) {
	cells := make([]*handlerCell, len(nodeIDs))
	members := make([]cluster.Member, len(nodeIDs))
	nodes := make([]*benchNode, len(nodeIDs))
	for i, id := range nodeIDs {
		cells[i] = &handlerCell{}
		ts := httptest.NewServer(cells[i])
		members[i] = cluster.Member{ID: id, URL: ts.URL}
		nodes[i] = &benchNode{id: id, ts: ts}
	}
	closeAll := func() {
		for _, n := range nodes {
			n.close()
		}
	}
	for i, id := range nodeIDs {
		datasets := map[string]*comic.Dataset{}
		for _, sg := range fleet {
			datasets[sg.name] = sg.dataset
		}
		srv, err := server.New(server.Config{Datasets: datasets})
		if err != nil {
			closeAll()
			return nil, err
		}
		nodes[i].srv = srv
		node, err := cluster.New(srv, cluster.Config{Self: id, Members: members, Store: store})
		if err != nil {
			closeAll()
			return nil, err
		}
		nodes[i].node = node
		var h http.Handler = node
		cells[i].h.Store(&h)
	}
	return nodes, nil
}

func (n *benchNode) close() {
	n.once.Do(func() {
		n.ts.Close()
		if n.srv != nil {
			n.srv.Close()
		}
	})
}

// solveSeeds posts a SelfInfMax body and returns the selected seeds.
func solveSeeds(baseURL string, body []byte) ([]int32, error) {
	status, data, err := postJSONBytes(baseURL+"/v1/selfinfmax", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, data)
	}
	var resp struct {
		Seeds []int32 `json:"seeds"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return resp.Seeds, nil
}

func postJSONBytes(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	//comic:allow errlost the read error is what matters; Close after a full read cannot fail usefully
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// fetchPlacement reads GET /v1/cluster's placement map as name → owner.
func fetchPlacement(baseURL string) (map[string]string, error) {
	resp, err := http.Get(baseURL + "/v1/cluster")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	//comic:allow errlost the read error is what matters; Close after a full read cannot fail usefully
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/cluster: status %d: %s", resp.StatusCode, data)
	}
	var doc struct {
		Placement map[string]struct {
			Owner string `json:"owner"`
		} `json:"placement"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(doc.Placement))
	for name, p := range doc.Placement {
		out[name] = p.Owner
	}
	return out, nil
}

// checkSingleflight fires identical slow spread estimates for a
// remote-owned graph at a non-owner concurrently and asserts at least one
// collapsed onto another in-flight proxy, as counted by /v1/stats.
func checkSingleflight(nodes []*benchNode, fleet []selectedGraph, seed uint64) error {
	router := nodes[0]
	var target *selectedGraph
	for i := range fleet {
		if fleet[i].owner != router.id {
			target = &fleet[i]
			break
		}
	}
	if target == nil {
		return fmt.Errorf("no remote-owned graph for the singleflight check")
	}
	body, err := json.Marshal(map[string]any{
		"dataset": target.name,
		"seedsA":  comic.HighDegreeSeeds(target.dataset.Graph, 5),
		"runs":    20000,
		"seed":    seed,
	})
	if err != nil {
		return err
	}
	const concurrent = 6
	var wg sync.WaitGroup
	errs := make([]error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, data, postErr := postJSONBytes(router.ts.URL+"/v1/spread", body)
			if postErr == nil && status != http.StatusOK {
				postErr = fmt.Errorf("status %d: %s", status, data)
			}
			errs[i] = postErr
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("singleflight spread: %w", err)
		}
	}
	hits, err := clusterCounter(router.ts.URL, "proxySingleflightHits")
	if err != nil {
		return err
	}
	if hits < 1 {
		return fmt.Errorf("%d identical concurrent proxied estimates produced no singleflight collapse", concurrent)
	}
	return nil
}

// clusterCounter reads one numeric field of the stats cluster section.
func clusterCounter(baseURL, field string) (int64, error) {
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	//comic:allow errlost the read error is what matters; Close after a full read cannot fail usefully
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	var stats struct {
		Cluster map[string]any `json:"cluster"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		return 0, err
	}
	v, ok := stats.Cluster[field]
	if !ok {
		return 0, fmt.Errorf("stats cluster section has no %q field", field)
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("stats cluster field %q is %T, not a number", field, v)
	}
	return int64(f), nil
}

// rebalanceOut removes the last node from the fleet through the two-phase
// dance — prepare on every node, commit on the survivors — and asserts
// the inherited graphs are served warm: cache entries moved through the
// shared store, zero collections rebuilt, seeds byte-identical.
func rebalanceOut(rec *clusterBenchRecord, nodes []*benchNode, fleet []selectedGraph, queries map[string][]byte) error {
	survivors := nodes[:len(nodes)-1]
	leaving := nodes[len(nodes)-1]
	next := make([]cluster.Member, len(survivors))
	for i, n := range survivors {
		next[i] = cluster.Member{ID: n.id, URL: n.ts.URL}
	}
	missesBefore := make([]int64, len(survivors))
	for i, n := range survivors {
		missesBefore[i] = n.srv.Index().Stats().Misses
	}

	t0 := time.Now()
	for _, n := range nodes {
		sum, err := putMembership(n.ts.URL, next, "prepare")
		if err != nil {
			return fmt.Errorf("prepare on %s: %w", n.id, err)
		}
		rec.RebalancePublished += sum.PublishedEntries
		if n.id == leaving.id {
			rec.GraphsMoved += sum.GraphsOut
		}
	}
	for _, n := range survivors {
		sum, err := putMembership(n.ts.URL, next, "commit")
		if err != nil {
			return fmt.Errorf("commit on %s: %w", n.id, err)
		}
		rec.RebalanceAdopted += sum.AdoptedEntries
	}
	rec.RebalanceNs = time.Since(t0).Nanoseconds()
	if rec.GraphsMoved == 0 || rec.RebalancePublished == 0 {
		return fmt.Errorf("rebalance moved %d graphs and published %d entries; expected a real migration",
			rec.GraphsMoved, rec.RebalancePublished)
	}
	if rec.RebalanceAdopted == 0 {
		return fmt.Errorf("rebalance adopted no cache entries from the shared store")
	}

	after, err := fetchPlacement(survivors[0].ts.URL)
	if err != nil {
		return err
	}
	rec.OwnershipAfter = after
	for name, owner := range after {
		if owner == leaving.id {
			return fmt.Errorf("graph %s still placed on departed node %s", name, owner)
		}
	}

	// Every graph once more, routed per the new placement. Warm for the
	// graphs the survivors already owned, adopted for the inherited ones —
	// never rebuilt.
	byID := map[string]*benchNode{}
	for _, n := range survivors {
		byID[n.id] = n
	}
	for _, sg := range fleet {
		owner, ok := byID[after[sg.name]]
		if !ok {
			return fmt.Errorf("graph %s has no surviving owner in the new placement", sg.name)
		}
		seeds, err := solveSeeds(owner.ts.URL, queries[sg.name])
		if err != nil {
			return fmt.Errorf("post-rebalance solve %s: %w", sg.name, err)
		}
		if fmt.Sprint(seeds) != fmt.Sprint(rec.Seeds[sg.name]) {
			return fmt.Errorf("post-rebalance solve %s diverged from the pre-rebalance seeds", sg.name)
		}
	}
	for i, n := range survivors {
		rec.RebalanceRebuilds += int(n.srv.Index().Stats().Misses - missesBefore[i])
	}
	if rec.RebalanceRebuilds != 0 {
		return fmt.Errorf("rebalance rebuilt %d collection(s); warm state must move through the store, not rebuild",
			rec.RebalanceRebuilds)
	}
	return nil
}

// putMembership PUTs a membership change and returns the rebalance
// summary half of the response.
func putMembership(baseURL string, members []cluster.Member, phase string) (cluster.RebalanceSummary, error) {
	var sum cluster.RebalanceSummary
	body, err := json.Marshal(map[string]any{"members": members, "phase": phase})
	if err != nil {
		return sum, err
	}
	req, err := http.NewRequest(http.MethodPut, baseURL+"/v1/cluster", bytes.NewReader(body))
	if err != nil {
		return sum, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return sum, err
	}
	data, err := io.ReadAll(resp.Body)
	//comic:allow errlost the read error is what matters; Close after a full read cannot fail usefully
	resp.Body.Close()
	if err != nil {
		return sum, err
	}
	if resp.StatusCode != http.StatusOK {
		return sum, fmt.Errorf("PUT /v1/cluster: status %d: %s", resp.StatusCode, data)
	}
	var wrapper struct {
		Rebalance cluster.RebalanceSummary `json:"rebalance"`
	}
	if err := json.Unmarshal(data, &wrapper); err != nil {
		return sum, err
	}
	return wrapper.Rebalance, nil
}

func (r *clusterBenchRecord) render(w io.Writer) error {
	var werr error
	printf(w, &werr, "cluster benchmark: %s scale %g, %d graphs over %d nodes (k=%d, mc=%d, seed %d)\n",
		r.Dataset, r.Scale, len(r.GraphNames), len(r.Nodes), r.K, r.MC, r.Seed)
	var maxBusy int64
	for _, b := range r.ClusterBusyNs {
		if b > maxBusy {
			maxBusy = b
		}
	}
	printf(w, &werr, "  warm workload busy time: single node %v, busiest cluster node %v (%.2fx)\n",
		time.Duration(r.SingleBusyNs), time.Duration(maxBusy),
		float64(r.SingleBusyNs)/float64(maxBusy))
	printf(w, &werr, "  cross-node parity: %d proxied solves, %d divergent\n", r.ProxiedChecks, r.SeedDivergence)
	printf(w, &werr, "  rebalance (n3 out): %d graphs moved, %d entries published, %d adopted, %d rebuilt in %v\n",
		r.GraphsMoved, r.RebalancePublished, r.RebalanceAdopted, r.RebalanceRebuilds,
		time.Duration(r.RebalanceNs))
	return werr
}
