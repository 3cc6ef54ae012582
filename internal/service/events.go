package service

import "context"

// JobEvent is one record on a job's event stream, serialized as NDJSON
// by the streaming endpoints. Every job's log is the sequence
//
//	start · cell × Done · (done | failed | canceled | deadline_exceeded)
//
// with Seq dense and ascending from 0 (Done == Total when the terminal
// event is done; canceled, expired and failed jobs may terminate with
// fewer cells). Ordering guarantee: cell events are published before
// the terminal event, and every subscriber observes its events in Seq
// order with no duplicates — a streaming client therefore always sees
// the first finished cell strictly before the job reaches done.
type JobEvent struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"` // start | cell | done | failed | canceled | deadline_exceeded
	JobID string `json:"job_id"`
	// TraceID is the job's trace identifier, stamped on every event so
	// a streamed NDJSON record correlates with the span tree on
	// /v1/jobs/{id}/trace and with structured log lines.
	TraceID string `json:"trace_id,omitempty"`
	// Done / Total track progress at publish time (cell and terminal
	// events; the start event reports 0/Total).
	Done  int `json:"done_cells"`
	Total int `json:"total_cells"`
	// Cell is the finished cell (cell events only).
	Cell *CellResult `json:"cell,omitempty"`
	// Result is the aggregated sweep (done events only).
	Result *SimulateResult `json:"result,omitempty"`
	// Error is the failure reason (failed, canceled and
	// deadline_exceeded events).
	Error string `json:"error,omitempty"`
}

// Event types on a job stream.
const (
	EventStart  = "start"
	EventCell   = "cell"
	EventDone   = "done"
	EventFailed = "failed"
	// EventCanceled and EventDeadlineExceeded are the cancellation
	// terminals: the job was abandoned by an explicit cancel (or client
	// disconnect) or ran out of its deadline budget. Like done/failed
	// they close the stream; Done reports how many cells landed before
	// the cancellation took effect.
	EventCanceled         = "canceled"
	EventDeadlineExceeded = "deadline_exceeded"
)

// publish appends ev to the job's log, stamping its Seq, the job's ids
// and its progress at this instant, and wakes every subscriber waiting
// at the end of the log. Callers hold the store lock, so events land in
// the order the job's state changes.
func (r *jobRec) publish(ev JobEvent) {
	ev.Seq = len(r.log)
	ev.JobID = r.job.ID
	ev.TraceID = r.job.TraceID
	ev.Done = r.job.Done
	ev.Total = r.job.Total
	r.log = append(r.log, ev)
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

// JobSubscription is one reader of a job's event stream: a cursor into
// the job's retained log. It keeps the log readable after the store
// evicts the job, so a stream that started before an eviction still
// ends with its terminal event.
type JobSubscription struct {
	store *jobStore
	rec   *jobRec
	next  int // seq of the next event to deliver; guarded by store.mu
}

// Close releases nothing: a subscription holds no resources beyond its
// cursor, so Close may be called any number of times, or not at all.
func (s *JobSubscription) Close() {}

// Next blocks until the subscriber's next event is available and
// returns it. eos reports a cleanly ended stream (terminal event
// already delivered); err is the subscriber's context expiring.
func (s *JobSubscription) Next(ctx context.Context) (ev JobEvent, eos bool, err error) {
	mu, r := &s.store.mu, s.rec
	for {
		mu.Lock()
		if s.next < len(r.log) {
			ev := r.log[s.next]
			s.next++
			mu.Unlock()
			return ev, false, nil
		}
		if terminalStatus(r.job.Status) {
			// finish publishes the terminal event in the same critical
			// section that sets the status, so the log is complete.
			mu.Unlock()
			return JobEvent{}, true, nil
		}
		if r.wake == nil {
			r.wake = make(chan struct{})
		}
		wake := r.wake
		mu.Unlock()
		select {
		case <-ctx.Done():
			return JobEvent{}, false, ctx.Err()
		case <-wake:
		}
	}
}
