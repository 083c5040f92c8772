package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// serverProc is one comic-serve child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	out  bytes.Buffer // its log; read only after done is closed
	done chan struct{}
	err  error // cmd.Wait's result, set before done is closed
}

// startServer spawns comic-serve on a free loopback port, serving the
// fleet loadDatasets builds, with its default 256 MiB RR-set index.
func startServer(bin string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	p := &serverProc{base: "http://" + addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, "-addr", addr,
		"-datasets", flixster+","+doubanBook,
		"-scale", strconv.FormatFloat(datasetScale, 'g', -1, 64),
		"-dataset-seed", strconv.Itoa(datasetSeed))
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	// The server must not outlive the benchmark, even if it is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls /healthz until the server answers.
func (p *serverProc) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, _, err := call(c, http.MethodGet, p.base+"/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("comic-serve exited during boot (%v): %s", p.err, p.out.String())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comic-serve not ready after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop asks the server to shut down and waits until it has exited,
// killing it if the graceful drain takes too long.
func (p *serverProc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by the wait below
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill() // same
		<-p.done
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// newClient returns an HTTP client that keeps at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// call sends one request and reads the whole response body.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// callOK is call, with any status but 200 turned into an error.
func callOK(c *http.Client, method, url string, body []byte) ([]byte, error) {
	status, b, err := call(c, method, url, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, status, b)
	}
	return b, err
}

// opResult is one op as the client saw it.
type opResult struct {
	op op
	// done is when the op completed, from the start of the timed phase.
	done    time.Duration
	latency time.Duration
	// solveLatency is the solve request's share of latency; on
	// patch-stream latency also covers the patch before it.
	solveLatency time.Duration
	patchBody    []byte
	body         []byte
	// serverMs is the solve response's elapsedMs, the server's own timing
	// of the solve inside the handler.
	serverMs float64
	err      error
}

func doOp(c *http.Client, base string, o op) opResult {
	r := opResult{op: o}
	solve, err := json.Marshal(o.Solve)
	if err != nil {
		r.err = err
		return r
	}
	var patch []byte
	if o.Patch != nil {
		if patch, err = json.Marshal(o.Patch); err != nil {
			r.err = err
			return r
		}
	}
	t0 := time.Now()
	if patch != nil {
		r.patchBody, r.err = callOK(c, http.MethodPatch, base+"/v1/graphs/"+o.Patch.Dataset+"/edges", patch)
	}
	t1 := time.Now()
	if r.err == nil {
		r.body, r.err = callOK(c, http.MethodPost, base+o.Solve.path(), solve)
	}
	r.solveLatency = time.Since(t1)
	r.latency = time.Since(t0)
	if r.err == nil {
		var e struct {
			ElapsedMs float64 `json:"elapsedMs"`
		}
		r.err = json.Unmarshal(r.body, &e)
		r.serverMs = e.ElapsedMs
	}
	return r
}

// indexCounters are the /v1/stats index fields the benchmark reads.
type indexCounters struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	DedupWaits      int64 `json:"dedupWaits"`
	Evictions       int64 `json:"evictions"`
	OrderHits       int64 `json:"orderHits"`
	OrderMisses     int64 `json:"orderMisses"`
	RepairedSets    int64 `json:"repairedSets"`
	RepairFallbacks int64 `json:"repairFallbacks"`
	RepairTimeNs    int64 `json:"repairTimeNs"`
	ResidentBytes   int64 `json:"residentBytes"`
	BuildTimeNs     int64 `json:"buildTimeNs"`
}

func fetchCounters(c *http.Client, base string) (indexCounters, error) {
	b, err := callOK(c, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return indexCounters{}, err
	}
	var s struct {
		Index indexCounters `json:"index"`
	}
	err = json.Unmarshal(b, &s)
	return s.Index, err
}

// loadRun is what the untraced run measured.
type loadRun struct {
	setups     []time.Duration
	warmBodies [][]byte // per warm-up solve, elapsedMs stripped
	ops        []opResult
	elapsed    time.Duration
	serverCPU  float64 // seconds, over the timed phase
	steal      float64
	rss        []float64 // bytes, sampled through the timed phase
	before     indexCounters
	after      indexCounters
}

// setupServer spawns a server and runs the workload's warm-up solves,
// returning the warm-up bodies with elapsedMs stripped.
func setupServer(bin string, c *http.Client, w *workload) (*serverProc, [][]byte, error) {
	p, err := startServer(bin)
	if err != nil {
		return nil, nil, err
	}
	if err := p.waitReady(c, 30*time.Second); err != nil {
		p.stop()
		return nil, nil, err
	}
	var bodies [][]byte
	for _, q := range w.warmup {
		body, err := json.Marshal(q)
		if err == nil {
			body, err = callOK(c, http.MethodPost, p.base+q.path(), body)
		}
		if err != nil {
			p.stop()
			return nil, nil, fmt.Errorf("warm-up solve: %w", err)
		}
		bodies = append(bodies, stripElapsed(body))
	}
	return p, bodies, nil
}

// measure sets the server up `setups` times, timing each set-up from spawn
// to the end of its warm-up solves, keeps the last server, and drives the
// workload against it closed loop for d. The server is stopped on return.
func measure(bin string, w *workload, d time.Duration, setups int) (*loadRun, error) {
	c := newClient(w.clients)
	defer c.CloseIdleConnections()
	lr := &loadRun{}
	var p *serverProc
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		sp, bodies, err := setupServer(bin, c, w)
		if err != nil {
			return nil, err
		}
		lr.setups = append(lr.setups, time.Since(t0))
		if i > 0 && !sameAnswers(bodies, lr.warmBodies) {
			sp.stop()
			return nil, errors.New("warm-up answers differ between two set-ups")
		}
		lr.warmBodies = bodies
		if i < setups-1 {
			sp.stop()
			c.CloseIdleConnections()
			continue
		}
		p = sp
	}
	defer p.stop()

	var err error
	if lr.before, err = fetchCounters(c, p.base); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(p.pid())
	if err != nil {
		return nil, err
	}
	mc0, err := machineCPU()
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			if b, rerr := procRSS(p.pid()); rerr == nil {
				lr.rss = append(lr.rss, float64(b))
			}
			select {
			case <-stopRSS:
				return
			case <-t.C:
			}
		}
	}()

	lr.ops, lr.elapsed = drive(c, p.base, w, d)

	close(stopRSS)
	<-rssDone
	cpu1, err := procCPU(p.pid())
	if err != nil {
		return nil, err
	}
	mc1, err := machineCPU()
	if err != nil {
		return nil, err
	}
	lr.serverCPU = cpu1 - cpu0
	lr.steal = stealFrac(mc0, mc1)
	if lr.after, err = fetchCounters(c, p.base); err != nil {
		return nil, err
	}
	return lr, nil
}

// drive runs w's clients closed loop: each sends its next op only after the
// previous one completed, and none starts an op after d has passed. It
// returns the ops in stream order and the time until the last completed.
func drive(c *http.Client, base string, w *workload, d time.Duration) ([]opResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var out []opResult
	var wg sync.WaitGroup
	for i := 0; i < w.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := doOp(c, base, w.next())
				r.done = time.Since(start)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(out, func(i, j int) bool { return out[i].op.ID < out[j].op.ID })
	return out, elapsed
}

// stripElapsed removes the "elapsedMs" member, the one field of a solve
// response that is not a function of the request.
func stripElapsed(body []byte) []byte {
	i := bytes.LastIndex(body, []byte(`,"elapsedMs":`))
	if i < 0 {
		return body
	}
	j := bytes.IndexByte(body[i+1:], '}')
	if j < 0 {
		return body
	}
	return append(append([]byte(nil), body[:i]...), body[i+1+j:]...)
}

// sameAnswers compares two servers' warm-up answers. Their bodies differ in
// the graphs' creation times, so answers are compared in canonical form.
func sameAnswers(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, err1 := canonicalAnswer(a[i])
		y, err2 := canonicalAnswer(b[i])
		if err1 != nil || err2 != nil || !bytes.Equal(x, y) {
			return false
		}
	}
	return true
}
