// Command loadbench is comic-serve's load benchmark. It starts comic-serve
// as a child process, drives it closed loop over loopback HTTP with one of
// three workloads, checks every answer against a reference, and prints the
// metrics as one JSON line last:
//
//	loadbench --workload warm-solve --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - warm-solve: 2 clients repeat six pre-warmed solves, so Monte-Carlo
//     candidate scoring is nearly all of the work.
//   - cold-solve: 1 client; every solve uses a never-seen opposite set and
//     master seed, so RR-set builds dominate.
//   - patch-stream: 1 client; each op reweights 8 Flixster edges and then
//     solves on the patched generation, so incremental repair dominates.
//
// --workload all runs the three in turn, each followed by its result line.
// With --trace 0 it reports the end-to-end metrics of the untraced run.
// With --trace 1 it reports per-layer metrics: the server's own counters
// from the untraced run, and timings from a traced in-process replay of the
// same ops, whose spans are written under -trace-dir.
//
// loadbench/run.sh builds comic-serve and this command from the checkout
// and runs it from the checkout's root.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"comic/internal/datasets"
)

func main() {
	// The server child is killed when the thread that started it exits
	// (Pdeathsig); pinning main to one thread makes that the process exit.
	runtime.LockOSThread()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all to run the three in turn")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed sends the same op sequence")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	serveBin := fs.String("serve", ".bench_build/bin/comic-serve", "comic-serve binary")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced replay writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "loadbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	code := 0
	for _, n := range names {
		rep, err := bench(n, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *serveBin, *traceDir, stdout, stderr)
		var b []byte
		if err == nil {
			b, err = json.Marshal(rep)
		}
		if err != nil {
			fmt.Fprintf(stderr, "loadbench: %s: %v\n", n, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return code
}

// bench runs one workload: the untraced load run, then the in-process
// replay wherever a reference or the trace needs it, then the checks.
func bench(name string, seed uint64, d time.Duration, traced bool, serveBin, traceDir string, stdout, stderr io.Writer) (*report, error) {
	ds, err := loadDatasets()
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed, ds)
	if err != nil {
		return nil, err
	}
	setups := w.setups
	if traced {
		setups = 1
	}
	lr, err := measure(serveBin, w, d, setups)
	if err != nil {
		return nil, err
	}
	if len(lr.ops) == 0 {
		return nil, errors.New("no op completed")
	}

	// An op that repeats a warm-up solve is checked against the warm-up
	// answer; the replay is the reference for every other op, and the
	// source of every per-layer timing.
	needReplay := traced
	for _, r := range lr.ops {
		needReplay = needReplay || r.op.Config < 0
	}
	var outs []replayOut
	var tr *tracer
	var rs replayStats
	if needReplay {
		if traced {
			tr = newTracer()
		}
		outs, rs = replay(ds, w, lr.ops, tr)
	}

	failed := check(lr, outs, stderr)
	rep := &report{Correct: failed == 0, Attempted: len(lr.ops), Failed: failed}
	if traced {
		rep.Metrics = layerMetrics(lr, tr.spans, rs)
		if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed))); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = endToEnd(lr)
	}
	summarize(stdout, name, seed, d, traced, lr, rep)
	return rep, nil
}

// replayStats holds the replay process's runtime deltas over the timed ops.
type replayStats struct {
	allocBytes uint64
	gcCPU      float64 // seconds, as the runtime accounts it at each GC
	totalCPU   float64 // seconds, of the whole process
}

// replay reruns the warm-up and then the load run's ops in process, one at
// a time, in stream order. Warm-up ops get negative ids.
func replay(ds map[string]*datasets.Dataset, w *workload, ops []opResult, tr *tracer) ([]replayOut, replayStats) {
	r := newReplayer(ds, tr)
	for i, q := range w.warmup {
		r.run(op{ID: -1 - i, Config: i, Solve: q})
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcSeconds()
	cpu0, err0 := procCPU(os.Getpid())
	outs := make([]replayOut, len(ops))
	for i, o := range ops {
		outs[i] = r.run(o.op)
	}
	cpu1, err1 := procCPU(os.Getpid())
	gc1 := gcSeconds()
	runtime.ReadMemStats(&m1)
	rs := replayStats{allocBytes: m1.TotalAlloc - m0.TotalAlloc, gcCPU: gc1 - gc0}
	if err0 == nil && err1 == nil {
		rs.totalCPU = cpu1 - cpu0
	}
	return outs, rs
}

// gcSeconds reads the runtime's account of the CPU time its GC has used.
func gcSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// check counts the ops that failed: a transport error or non-2xx status,
// or an answer that differs from the reference. An op that repeats a
// warm-up solve must match that warm-up answer from the same server byte
// for byte, elapsedMs aside; with a replay, every op must also match the
// replay's answer. Mismatches are described on stderr.
func check(lr *loadRun, outs []replayOut, stderr io.Writer) int {
	failed := 0
	for i, r := range lr.ops {
		err := r.err
		if err == nil && r.op.Config >= 0 && !bytes.Equal(stripElapsed(r.body), lr.warmBodies[r.op.Config]) {
			err = errors.New("answer differs from the warm-up answer")
		}
		if err == nil && outs != nil {
			err = matchReplay(r, outs[i])
		}
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(stderr, "loadbench: op %d failed: %v\n", r.op.ID, err)
			}
		}
	}
	return failed
}

// matchReplay compares one op's responses with the replay's answers.
func matchReplay(r opResult, want replayOut) error {
	if want.err != nil {
		return fmt.Errorf("replay: %w", want.err)
	}
	if want.patch != nil {
		got, err := canonicalPatch(r.patchBody)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want.patch) {
			return fmt.Errorf("patch outcome %s, replay %s", got, want.patch)
		}
	}
	got, err := canonicalAnswer(r.body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want.answer) {
		return fmt.Errorf("answer %s, replay %s", got, want.answer)
	}
	return nil
}

func latenciesMs(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, r := range ops {
		out[i] = ms(r.latency)
	}
	return out
}

// rounds is how many equal slices of the timed phase throughput is
// measured over; the reported throughput is their median, so a neighbour
// that steals the CPU for part of a run moves it less.
const rounds = 5

// roundThroughputs splits the ops, in completion order, into n slices of
// equal op count and returns each slice's ops per second, timed from the
// previous slice's last completion (the phase start for the first).
func roundThroughputs(ops []opResult, n int) []float64 {
	done := make([]time.Duration, len(ops))
	for i, r := range ops {
		done[i] = r.done
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var out []float64
	var prev time.Duration
	for k := 1; k <= n; k++ {
		lo, hi := (k-1)*len(done)/n, k*len(done)/n
		if hi == lo {
			continue
		}
		out = append(out, float64(hi-lo)/(done[hi-1]-prev).Seconds())
		prev = done[hi-1]
	}
	return out
}

// endToEnd computes the metrics a user of the server sees.
func endToEnd(lr *loadRun) map[string]metric {
	lat := latenciesMs(lr.ops)
	p50, _ := percentile(lat, 0.5)
	p90, _ := percentile(lat, 0.9)
	setups := make([]float64, len(lr.setups))
	for i, s := range lr.setups {
		setups[i] = s.Seconds()
	}
	return map[string]metric{
		"throughput_rps": {median(roundThroughputs(lr.ops, rounds)), "1/s"},
		"p50_ms":         {p50, "ms"},
		"p90_ms":         {p90, "ms"},
		"cpu_ms_per_op":  {lr.serverCPU * 1000 / float64(len(lr.ops)), "ms"},
		"rss_mb":         {mean(lr.rss) / 1e6, "MB"},
		"setup_s":        {median(setups), "s"},
	}
}

// layerMetrics computes the per-layer metrics: counters the server
// exported over the untraced run, and timings from the traced replay.
func layerMetrics(lr *loadRun, spans []span, rs replayStats) map[string]metric {
	b, a := lr.before, lr.after
	ops := float64(len(lr.ops))
	patches := 0.0
	var overhead []float64
	for _, r := range lr.ops {
		if r.op.Patch != nil {
			patches++
		}
		if r.err == nil {
			overhead = append(overhead, ms(r.solveLatency)-r.serverMs)
		}
	}
	misses := float64(a.Misses - b.Misses)
	orderHits := float64(a.OrderHits - b.OrderHits)
	m := map[string]metric{
		"server.http_overhead_ms":        {median(overhead), "ms"},
		"server.index_hit_ratio":         {ratio(float64(a.Hits-b.Hits), float64(a.Hits-b.Hits)+misses+float64(a.DedupWaits-b.DedupWaits)), "ratio"},
		"server.order_hit_ratio":         {ratio(orderHits, orderHits+float64(a.OrderMisses-b.OrderMisses)), "ratio"},
		"server.index_evictions_per_op":  {float64(a.Evictions-b.Evictions) / ops, "1/op"},
		"server.index_resident_mb":       {float64(a.ResidentBytes) / 1e6, "MB"},
		"server.build_ms_per_miss":       {ratio(float64(a.BuildTimeNs-b.BuildTimeNs)/1e6, misses), "ms"},
		"server.repair_ms_per_patch":     {ratio(float64(a.RepairTimeNs-b.RepairTimeNs)/1e6, patches), "ms"},
		"server.repaired_sets_per_patch": {ratio(float64(a.RepairedSets-b.RepairedSets), patches), "count"},
		"server.repair_fallbacks":        {float64(a.RepairFallbacks - b.RepairFallbacks), "count"},
		"client.op_ms":                   {mean(latenciesMs(lr.ops)), "ms"},
		"runtime.alloc_mb_per_op":        {float64(rs.allocBytes) / 1e6 / ops, "MB"},
		"runtime.gc_cpu_frac":            {ratio(rs.gcCPU, rs.totalCPU), "ratio"},
	}
	for k, v := range spanMetrics(spans) {
		m[k] = v
	}
	return m
}

// spanMetrics derives the replay's layer timings. Per-op figures cover the
// timed ops only; per-build and per-ordering figures also cover the
// warm-up, which is where warm-solve builds.
func spanMetrics(spans []span) map[string]metric {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var opMs, solveMs, scoreMs, applyMs, kpt, gen, theta, colMB, orderMs []float64
	var sims, scoreS, reused, repaired float64
	for _, s := range spans {
		timed := s.Op >= 0
		switch {
		case s.Name == "op" && timed:
			opMs = append(opMs, ms(s.dur()))
		case s.Name == "solver.solve" && timed:
			self := selfTime(s, children[s.ID])
			solveMs = append(solveMs, ms(s.dur()))
			scoreMs = append(scoreMs, ms(self))
			sims += s.Attrs["sims"]
			scoreS += self.Seconds()
		case s.Name == "graph.apply":
			applyMs = append(applyMs, ms(s.dur()))
		case s.Name == "server.repair_graph":
			reused += s.Attrs["reusedSets"]
			repaired += s.Attrs["repairedSets"]
		case s.Name == "rrset.collection" && s.Attrs["build"] == 1:
			kpt = append(kpt, s.Attrs["kptMs"])
			gen = append(gen, s.Attrs["genMs"])
			theta = append(theta, s.Attrs["theta"])
			colMB = append(colMB, s.Attrs["bytes"]/1e6)
		case s.Name == "rrset.select" && s.Attrs["orderBuild"] == 1:
			orderMs = append(orderMs, s.Attrs["selectMs"])
		}
	}
	return map[string]metric{
		"replay.op_ms":            {mean(opMs), "ms"},
		"solver.solve_ms":         {mean(solveMs), "ms"},
		"montecarlo.score_ms":     {mean(scoreMs), "ms"},
		"montecarlo.sims_per_s":   {ratio(sims, scoreS), "1/s"},
		"rrset.kpt_ms":            {mean(kpt), "ms"},
		"rrset.gen_ms":            {mean(gen), "ms"},
		"rrset.theta":             {mean(theta), "count"},
		"rrset.collection_mb":     {mean(colMB), "MB"},
		"rrset.order_build_ms":    {mean(orderMs), "ms"},
		"graph.apply_ms":          {mean(applyMs), "ms"},
		"rrset.repair_dirty_frac": {ratio(repaired, reused+repaired), "ratio"},
	}
}

// summarize prints the human-readable lines that precede the result: the
// run's shape, every metric, and the host-noise record, which tells a run
// slowed by a neighbour from one slowed by code and is not gated.
func summarize(out io.Writer, name string, seed uint64, d time.Duration, traced bool, lr *loadRun, rep *report) {
	lat := latenciesMs(lr.ops)
	_, beyond := percentile(lat, 0.9)
	fmt.Fprintf(out, "loadbench %s seed %d: %d ops in %.2fs timed (%v requested), %d failed, error_frac %g, %d samples beyond p90, traced %v\n",
		name, seed, len(lr.ops), lr.elapsed.Seconds(), d, rep.Failed, float64(rep.Failed)/float64(len(lr.ops)), beyond, traced)
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	fmt.Fprintf(out, "  throughput by round (1/s): %.4g\n", roundThroughputs(lr.ops, rounds))
	noise, _ := json.Marshal(map[string]float64{"run.steal_frac": lr.steal, "run.server_cpu_s": lr.serverCPU})
	fmt.Fprintf(out, "noise %s\n", noise)
}
