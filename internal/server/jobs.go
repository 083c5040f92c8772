package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
)

// Job states reported by GET /v1/jobs/{id}.
const (
	jobQueued   = "queued"
	jobRunning  = "running"
	jobDone     = "done"
	jobCanceled = "canceled"
)

// job is one async submission: a batch of queries executed off the request
// goroutine by the worker pool. All mutable fields are guarded by the
// owning jobQueue's mutex.
type job struct {
	id      string
	queries []batchQuery
	created time.Time
	ctx     context.Context
	cancel  context.CancelFunc

	state    string
	started  time.Time
	finished time.Time
	result   *batchResponse
}

// jobQueue runs submitted jobs on a fixed pool of workers (Config.MaxJobs).
// The pool bounds how many jobs execute at once; RR-set builds the jobs
// trigger still go through the index's shared build semaphore, so job
// workers and synchronous requests compete for the same build slots instead
// of multiplying them. Finished jobs are retained (up to retain) for
// GET /v1/jobs/{id} polling, oldest evicted first.
type jobQueue struct {
	run     func(ctx context.Context, queries []batchQuery) *batchResponse
	retain  int
	workers int

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // finish order, for retention eviction
	queue    chan *job
	nextID   int64
	started  bool // worker pool spawned (lazily, on first submit)
	closed   bool
	wg       sync.WaitGroup
}

func newJobQueue(run func(context.Context, []batchQuery) *batchResponse, workers, queueCap, retain int) *jobQueue {
	// The worker goroutines are spawned on first submit, not here: a
	// Server used purely as an http.Handler that never sees /v1/jobs
	// traffic (and is never Closed) must not leak a pool per instance.
	return &jobQueue{
		run:     run,
		retain:  retain,
		workers: workers,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, queueCap),
	}
}

func (q *jobQueue) worker() {
	defer q.wg.Done()
	for j := range q.queue {
		q.mu.Lock()
		if j.state != jobQueued { // canceled while waiting in the queue
			q.finishLocked(j, j.state)
			q.mu.Unlock()
			continue
		}
		j.state = jobRunning
		j.started = time.Now()
		q.mu.Unlock()

		res := q.run(j.ctx, j.queries)

		q.mu.Lock()
		j.result = res
		state := jobDone
		if j.ctx.Err() != nil {
			state = jobCanceled
		}
		q.finishLocked(j, state)
		q.mu.Unlock()
	}
}

// finishLocked records a job's terminal state and applies retention.
func (q *jobQueue) finishLocked(j *job, state string) {
	j.state = state
	j.finished = time.Now()
	j.cancel() // release the context's resources
	if q.jobs[j.id] != j {
		return // discarded by DELETE while queued: it takes no retention slot
	}
	q.finished = append(q.finished, j.id)
	for q.retain > 0 && len(q.finished) > q.retain {
		victim := q.finished[0]
		q.finished = q.finished[1:]
		delete(q.jobs, victim)
	}
}

// Typed submit failures, so the handler can map each to its own HTTP
// status and error code.
var (
	errShuttingDown = fmt.Errorf("server is shutting down")
	errQueueFull    = fmt.Errorf("job queue is full")
)

// submit enqueues a new job and returns its status snapshot (taken under
// the same lock, so it cannot race with retention eviction or a fast
// worker). It fails when the queue is full (the pool can't keep up) or
// the server is shutting down.
func (q *jobQueue) submit(queries []batchQuery) (jobStatus, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return jobStatus{}, errShuttingDown
	}
	if !q.started {
		q.started = true
		for i := 0; i < q.workers; i++ {
			q.wg.Add(1)
			go q.worker()
		}
	}
	q.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      fmt.Sprintf("job-%d", q.nextID),
		queries: queries,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		state:   jobQueued,
	}
	select {
	case q.queue <- j:
	default:
		cancel()
		return jobStatus{}, fmt.Errorf("%w (%d queued)", errQueueFull, cap(q.queue))
	}
	q.jobs[j.id] = j
	return j.statusLocked(false), nil
}

// get returns a snapshot of one job's status.
func (q *jobQueue) get(id string) (jobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return jobStatus{}, false
	}
	return j.statusLocked(true), true
}

// list returns status snapshots of every retained job, sorted by id.
func (q *jobQueue) list() []jobStatus {
	q.mu.Lock()
	out := make([]jobStatus, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, j.statusLocked(false))
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Created.Equal(b.Created) {
			return a.ID < b.ID
		}
		return a.Created.Before(b.Created)
	})
	return out
}

// remove implements DELETE /v1/jobs/{id}: cancel a queued or running job
// (it transitions to "canceled" when the worker observes the cancellation;
// a queued job is marked immediately), or discard a finished one.
func (q *jobQueue) remove(id string) (jobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return jobStatus{}, false
	}
	switch j.state {
	case jobQueued:
		// The worker will observe the state change when it pops the job.
		j.state = jobCanceled
		j.cancel()
	case jobRunning:
		// The running batch stops at its next query boundary.
		j.cancel()
	default: // done or canceled: discard the record and free its retention slot
		delete(q.jobs, id)
		q.finished = slices.DeleteFunc(q.finished, func(f string) bool { return f == id })
	}
	return j.statusLocked(false), true
}

// close stops accepting jobs, cancels everything pending, and waits for
// the workers to drain.
func (q *jobQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	for _, j := range q.jobs {
		j.cancel()
	}
	close(q.queue)
	q.mu.Unlock()
	q.wg.Wait()
}

// jobStatus is the wire form of a job in /v1/jobs responses.
type jobStatus struct {
	ID      string    `json:"id"`
	State   string    `json:"state"`
	Queries int       `json:"queries"`
	Created time.Time `json:"created"`
	// WaitedMs is submission→start; RanMs is start→finish. Present once
	// the respective phase has completed.
	WaitedMs float64 `json:"waitedMs,omitempty"`
	RanMs    float64 `json:"ranMs,omitempty"`
	// Result carries the batch outcome once the job is done (or the
	// partial results of a canceled job). Omitted in list responses.
	Result *batchResponse `json:"result,omitempty"`
}

func (j *job) statusLocked(includeResult bool) jobStatus {
	st := jobStatus{
		ID:      j.id,
		State:   j.state,
		Queries: len(j.queries),
		Created: j.created,
	}
	if !j.started.IsZero() {
		st.WaitedMs = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
		if !j.finished.IsZero() {
			st.RanMs = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	if includeResult {
		st.Result = j.result
	}
	return st
}

// --- handlers ---

// handleJobs dispatches /v1/jobs (POST submit, GET list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req batchRequest
		if !s.decodeBodyLimit(w, r, &req, s.batchBodyLimit()) {
			return
		}
		if aerr := s.validateBatch(&req); aerr != nil {
			s.writeErr(w, aerr)
			return
		}
		st, err := s.jobs.submit(req.Queries)
		if err != nil {
			if errors.Is(err, errShuttingDown) {
				s.httpError(w, http.StatusServiceUnavailable, codeShuttingDown, err.Error())
			} else {
				s.httpError(w, http.StatusTooManyRequests, codeQueueFull, err.Error())
			}
			return
		}
		s.nJobs.Add(1)
		writeJSON(w, http.StatusAccepted, st)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
	default:
		s.methodNotAllowed(w, r, http.MethodPost, http.MethodGet)
	}
}

// handleJobByID dispatches /v1/jobs/{id} (GET poll, DELETE cancel/discard).
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		st, ok := s.jobs.get(id)
		if !ok {
			s.httpError(w, http.StatusNotFound, codeJobNotFound, fmt.Sprintf("unknown job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodDelete:
		st, ok := s.jobs.remove(id)
		if !ok {
			s.httpError(w, http.StatusNotFound, codeJobNotFound, fmt.Sprintf("unknown job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		s.methodNotAllowed(w, r, http.MethodGet, http.MethodDelete)
	}
}
