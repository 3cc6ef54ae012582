package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
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
	Kind     string          `json:"kind"`
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

// jobStore holds jobs by ID, retaining at most maxJobs entries:
// creating a job beyond the cap evicts the oldest *finished* jobs
// (done or failed), and creation fails outright when the cap is filled
// by in-flight jobs — otherwise a request flood would grow job structs
// and dispatcher goroutines without bound, since 202-accepted sweeps
// park their backpressure in the dispatcher, not the HTTP handler.
//
// Every job also owns a jobBus (events.go): the store publishes
// lifecycle events (start / cell / done / failed) as state changes
// land, and subscribers stream them over /v1/jobs/{id}/events. The bus
// — and its retained event log — lives exactly as long as the job
// entry, so eviction frees both.
type jobStore struct {
	mu     sync.RWMutex
	jobs   map[string]*Job
	buses  map[string]*jobBus
	traces map[string]*obs.Trace
	// cancels holds each in-flight job's cancel function (cause-aware);
	// removed when the job reaches a terminal state, so canceling a
	// finished job is a cheap no-op.
	cancels map[string]context.CancelCauseFunc
	order   []string // creation order, for eviction
	maxJobs int
	nextID  atomic.Int64
	// onDrop observes slow-consumer wakeup drops across all buses
	// (may be nil; wired to the stream-drop metric).
	onDrop func()
}

func newJobStore(maxJobs int) *jobStore {
	if maxJobs < 1 {
		maxJobs = 1
	}
	return &jobStore{
		jobs:    map[string]*Job{},
		buses:   map[string]*jobBus{},
		traces:  map[string]*obs.Trace{},
		cancels: map[string]context.CancelCauseFunc{},
		maxJobs: maxJobs,
	}
}

// create registers a new job, evicting the oldest finished jobs past
// the cap. It returns an error when every retained slot holds an
// in-flight job. tr is the job's span recorder (may be nil); it — and
// its retained spans — lives exactly as long as the job entry.
func (s *jobStore) create(kind string, total int, tr *obs.Trace) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) >= s.maxJobs {
		evicted := false
		for i, id := range s.order {
			if old := s.jobs[id]; old != nil && terminalStatus(old.Status) {
				delete(s.jobs, id)
				delete(s.buses, id)
				delete(s.traces, id)
				delete(s.cancels, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return nil, fmt.Errorf("job limit reached: %d jobs in flight", len(s.jobs))
		}
	}
	j := &Job{
		ID:      fmt.Sprintf("job-%d", s.nextID.Add(1)),
		TraceID: tr.ID(),
		Kind:    kind,
		Status:  JobQueued,
		Created: time.Now().UTC(),
		Total:   total,
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if tr != nil {
		s.traces[j.ID] = tr
	}
	bus := newJobBus()
	bus.onDrop = s.onDrop
	bus.traceID = tr.ID()
	s.buses[j.ID] = bus
	bus.publish(JobEvent{Type: EventStart, JobID: j.ID, Total: total})
	return j, nil
}

// arm registers an in-flight job's cancel function and (optional)
// deadline after creation. The cancel function is dropped when the job
// reaches a terminal state.
func (s *jobStore) arm(id string, cancel context.CancelCauseFunc, deadline *time.Time) {
	s.mu.Lock()
	if j := s.jobs[id]; j != nil {
		s.cancels[id] = cancel
		j.Deadline = deadline
	}
	s.mu.Unlock()
}

// cancel fires the job's cancel function with the given cause. It
// reports whether the job exists; canceling a job that is already
// terminal (or was never armed) is a true no-op.
func (s *jobStore) cancel(id string, cause error) bool {
	s.mu.RLock()
	_, known := s.jobs[id]
	fn := s.cancels[id]
	s.mu.RUnlock()
	if fn != nil {
		fn(cause)
	}
	return known
}

// trace returns the job's span recorder. The bool reports whether the
// job itself is known; a known job may still carry a nil trace (the
// obs API is nil-safe, so callers need no extra check).
func (s *jobStore) trace(id string) (*obs.Trace, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.jobs[id]; !ok {
		return nil, false
	}
	return s.traces[id], true
}

// subscribe attaches a subscriber to the job's event stream, replaying
// retained events with Seq >= from. It reports false for unknown (or
// evicted) jobs.
func (s *jobStore) subscribe(id string, from int) (*JobSubscription, bool) {
	s.mu.RLock()
	bus, ok := s.buses[id]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return bus.subscribe(from), true
}

// busFor exposes a job's bus (tests and the dispatcher use it).
func (s *jobStore) busFor(id string) (*jobBus, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buses[id]
	return b, ok
}

// get returns a copy of the job (safe for concurrent marshaling) or
// false when the ID is unknown.
func (s *jobStore) get(id string) (Job, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

func (s *jobStore) setRunning(id string) {
	s.mu.Lock()
	if j := s.jobs[id]; j != nil {
		now := time.Now().UTC()
		j.Status = JobRunning
		j.Started = &now
	}
	s.mu.Unlock()
}

// cellDone advances the job's progress and publishes the finished cell
// on the job's event stream. Publishing happens under the store lock
// (store → bus lock order, consistent everywhere) so done_cells is
// monotonic in Seq order even when pool workers finish concurrently.
func (s *jobStore) cellDone(id string, cell CellResult) {
	s.mu.Lock()
	if j := s.jobs[id]; j != nil {
		j.Done++
		if bus := s.buses[id]; bus != nil {
			c := cell
			bus.publish(JobEvent{Type: EventCell, JobID: id, Done: j.Done, Total: j.Total, Cell: &c})
		}
	}
	s.mu.Unlock()
}

func (s *jobStore) finish(id string, res *SimulateResult, err error) {
	s.mu.Lock()
	if j := s.jobs[id]; j != nil {
		now := time.Now().UTC()
		j.Finished = &now
		evType := EventDone
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// Deadline expiry and explicit cancellation share the
			// canceled job status; the error text and the terminal event
			// type distinguish them.
			j.Status = JobCanceled
			j.Error = err.Error()
			evType = EventDeadlineExceeded
		case errors.Is(err, context.Canceled):
			j.Status = JobCanceled
			j.Error = err.Error()
			evType = EventCanceled
		case err != nil:
			j.Status = JobFailed
			j.Error = err.Error()
			evType = EventFailed
		default:
			j.Status = JobDone
			j.Result = res
		}
		delete(s.cancels, id)
		// Terminal event: published after every cell event (the
		// dispatcher waits for all cells first), closing the stream.
		if bus := s.buses[id]; bus != nil {
			if err != nil {
				bus.publish(JobEvent{Type: evType, JobID: id, Done: j.Done, Total: j.Total, Error: err.Error()})
			} else {
				bus.publish(JobEvent{Type: EventDone, JobID: id, Done: j.Done, Total: j.Total, Result: res})
			}
		}
	}
	s.mu.Unlock()
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
