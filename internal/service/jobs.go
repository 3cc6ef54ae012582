package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"valleymap/internal/obs"
)

// JobStatus is the lifecycle state of an async job.
type JobStatus string

// Job lifecycle: queued → running → done | failed | canceled.
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
	// JobCanceled covers both explicit cancellation (DELETE, client
	// disconnect on a streamed sweep) and an expired deadline; Error and
	// the terminal event type (canceled vs deadline_exceeded) say which.
	JobCanceled JobStatus = "canceled"
)

// terminalStatus reports whether st is a final job state.
func terminalStatus(st JobStatus) bool {
	return st == JobDone || st == JobFailed || st == JobCanceled
}

// Job is one asynchronous simulation sweep. Cells (workload × scheme
// pairs) execute across the shared worker pool; Done tracks progress.
type Job struct {
	ID string `json:"id"`
	// TraceID correlates the job with its span trace
	// (GET /v1/jobs/{id}/trace), its NDJSON events and log lines.
	TraceID  string          `json:"trace_id,omitempty"`
	Status   JobStatus       `json:"status"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Total    int             `json:"total_cells"`
	Done     int             `json:"done_cells"`
	Error    string          `json:"error,omitempty"`
	Result   *SimulateResult `json:"result,omitempty"`
	// Deadline is the instant the job's execution budget expires
	// (?deadline_ms / X-Deadline-Ms / the daemon default); absent for
	// jobs with no deadline.
	Deadline *time.Time `json:"deadline,omitempty"`
}

// jobRec is everything the store keeps for one job: its snapshot, its
// event log, its span trace and, while the job is in flight, its
// cancel function. The log is the job's event stream (events.go): it
// holds every event ever published, so late subscribers replay it and
// live ones tail it. It is bounded by the job itself (Total cells + 2
// control events) and goes with the record.
type jobRec struct {
	job    Job
	log    []JobEvent
	tr     *obs.Trace
	cancel context.CancelCauseFunc
	// wake is closed by the next publish. A subscriber that has read
	// the whole log makes it, when nil, and waits on it.
	wake chan struct{}
}

// jobStore holds one record per job, all under one lock, retaining at
// most maxJobs of them: creating a job at the cap evicts the oldest
// *finished* job (done, failed or canceled), and creation fails
// outright when the cap is filled by in-flight jobs — otherwise a
// request flood would grow job records and dispatcher goroutines
// without bound, since 202-accepted sweeps park their backpressure in
// the dispatcher, not the HTTP handler.
//
// Every state change that publishes an event (create, cellDone, finish)
// appends it under the same lock, so done_cells is monotonic in Seq
// order even when pool workers finish concurrently, and the terminal
// event lands in the critical section that makes the status terminal.
type jobStore struct {
	mu      sync.Mutex
	jobs    map[string]*jobRec
	order   []string // creation order, for eviction
	maxJobs int
	nextID  int
}

func newJobStore(maxJobs int) *jobStore {
	if maxJobs < 1 {
		maxJobs = 1
	}
	return &jobStore{jobs: map[string]*jobRec{}, maxJobs: maxJobs}
}

// create registers a new simulate job and publishes its start event,
// evicting the oldest finished job when the store is full. It returns
// an error when every retained slot holds an in-flight job. tr is the
// job's span recorder (may be nil), cancel its cause-aware cancel
// function, and deadline the instant its budget expires (nil for none).
func (s *jobStore) create(total int, tr *obs.Trace, cancel context.CancelCauseFunc, deadline *time.Time) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) >= s.maxJobs {
		// The store never holds more than maxJobs records, so one
		// eviction makes room.
		i := slices.IndexFunc(s.order, func(id string) bool { return terminalStatus(s.jobs[id].job.Status) })
		if i < 0 {
			return Job{}, fmt.Errorf("job limit reached: %d jobs in flight", len(s.jobs))
		}
		delete(s.jobs, s.order[i])
		s.order = slices.Delete(s.order, i, i+1)
	}
	s.nextID++
	r := &jobRec{
		job: Job{
			ID:       fmt.Sprintf("job-%d", s.nextID),
			TraceID:  tr.ID(),
			Status:   JobQueued,
			Created:  time.Now().UTC(),
			Total:    total,
			Deadline: deadline,
		},
		tr:     tr,
		cancel: cancel,
	}
	s.jobs[r.job.ID] = r
	s.order = append(s.order, r.job.ID)
	r.publish(JobEvent{Type: EventStart})
	return r.job, nil
}

// cancel fires the job's cancel function with the given cause. It
// reports whether the job exists; canceling a job that is already
// terminal is a true no-op.
func (s *jobStore) cancel(id string, cause error) bool {
	s.mu.Lock()
	r := s.jobs[id]
	var fn context.CancelCauseFunc
	if r != nil {
		fn = r.cancel
	}
	s.mu.Unlock()
	if fn != nil {
		fn(cause)
	}
	return r != nil
}

// trace returns the job's span recorder. The bool reports whether the
// job itself is known; a known job may still carry a nil trace (the
// obs API is nil-safe, so callers need no extra check).
func (s *jobStore) trace(id string) (*obs.Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[id]
	if r == nil {
		return nil, false
	}
	return r.tr, true
}

// subscribe attaches a reader to the job's event stream, replaying
// retained events with Seq >= from. It reports false for unknown (or
// evicted) jobs.
func (s *jobStore) subscribe(id string, from int) (*JobSubscription, bool) {
	s.mu.Lock()
	r := s.jobs[id]
	s.mu.Unlock()
	if r == nil {
		return nil, false
	}
	return &JobSubscription{store: s, rec: r, next: max(from, 0)}, true
}

// get returns a copy of the job (safe for concurrent marshaling) or
// false when the ID is unknown.
func (s *jobStore) get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[id]
	if r == nil {
		return Job{}, false
	}
	return r.job, true
}

func (s *jobStore) setRunning(id string) {
	s.mu.Lock()
	if r := s.jobs[id]; r != nil {
		now := time.Now().UTC()
		r.job.Status = JobRunning
		r.job.Started = &now
	}
	s.mu.Unlock()
}

// cellDone advances the job's progress and publishes the finished cell
// on the job's event stream.
func (s *jobStore) cellDone(id string, cell CellResult) {
	s.mu.Lock()
	if r := s.jobs[id]; r != nil && !terminalStatus(r.job.Status) {
		r.job.Done++
		r.publish(JobEvent{Type: EventCell, Cell: &cell})
	}
	s.mu.Unlock()
}

// finish moves the job to its terminal status, drops its cancel
// function and publishes the terminal event, which the dispatcher
// reaches only after every cell has reported.
func (s *jobStore) finish(id string, res *SimulateResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[id]
	if r == nil || terminalStatus(r.job.Status) {
		return
	}
	j := &r.job
	now := time.Now().UTC()
	j.Finished = &now
	ev := JobEvent{Type: EventDone}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// Deadline expiry and explicit cancellation share the canceled
		// job status; the error text and the terminal event type
		// distinguish them.
		j.Status, ev.Type = JobCanceled, EventDeadlineExceeded
	case errors.Is(err, context.Canceled):
		j.Status, ev.Type = JobCanceled, EventCanceled
	case err != nil:
		j.Status, ev.Type = JobFailed, EventFailed
	default:
		j.Status, j.Result, ev.Result = JobDone, res, res
	}
	if err != nil {
		j.Error = err.Error()
		ev.Error = j.Error
	}
	r.cancel = nil
	r.publish(ev)
}

// pool is a fixed-size worker pool with a bounded task queue. Submit
// blocks when the queue is full, giving natural backpressure: job
// dispatcher goroutines stall rather than the HTTP accept loop.
type pool struct {
	tasks chan func()
	busy  atomic.Int64
	wg    sync.WaitGroup
	// metrics/log back the panic backstop in run.
	metrics *Metrics
	log     *slog.Logger
	// mu orders submits against close: senders hold the read lock for
	// the whole check-then-send, so once close holds the write lock and
	// flips closed, no goroutine can be mid-send on the channel it is
	// about to close.
	mu     sync.RWMutex
	closed bool
	once   sync.Once
}

func newPool(workers, queue int, m *Metrics, log *slog.Logger) *pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	if log == nil {
		log = slog.Default()
	}
	p := &pool{tasks: make(chan func(), queue), metrics: m, log: log}
	m.gauge("valleyd_queue_depth", "Tasks waiting in the worker-pool queue.",
		func() float64 { return float64(p.backlog()) })
	m.gauge("valleyd_workers", "Configured worker-pool size.",
		func() float64 { return float64(workers) })
	m.gauge("valleyd_workers_busy", "Workers currently executing a task.",
		func() float64 { return float64(p.busyWorkers()) })
	m.gauge("valleyd_worker_utilization", "Busy workers over pool size.",
		func() float64 { return float64(p.busyWorkers()) / float64(workers) })
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				p.busy.Add(1)
				p.run(f)
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// run executes one task behind a recover backstop: a task that panics
// without its own recovery must not kill the shared worker goroutine,
// which would silently shrink the pool for every later job. The panic
// is logged with its stack and counted in valleyd_worker_panics_total.
func (p *pool) run(f func()) {
	defer func() {
		if r := recover(); r != nil {
			p.metrics.workerPanics.Inc()
			p.log.Error("worker panic recovered",
				"panic", fmt.Sprint(r),
				"stack", string(debug.Stack()),
			)
		}
	}()
	f()
}

// backlog reports tasks queued but not yet picked up; capacity the
// queue bound; busyWorkers the workers currently executing a task. All
// are point-in-time samples for the admission gate and metrics.
func (p *pool) backlog() int     { return len(p.tasks) }
func (p *pool) capacity() int    { return cap(p.tasks) }
func (p *pool) busyWorkers() int { return int(p.busy.Load()) }

// submit enqueues a task, blocking while the queue is full. It reports
// false when the pool is shutting down. A sender blocked on a full
// queue delays close until a worker frees a slot — workers keep
// draining, so the wait is bounded.
func (p *pool) submit(f func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.tasks <- f
	return true
}

// close stops intake, lets queued tasks drain and waits for workers.
func (p *pool) close() {
	p.once.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.tasks)
	})
	p.wg.Wait()
}
