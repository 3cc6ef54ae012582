package service

import (
	"net/http"

	"valleymap/internal/obs"
)

// JobTrace is the JSON shape of GET /v1/jobs/{id}/trace: the job's span
// forest from HTTP accept through enqueue, per-cell queue wait, trace
// build, engine run and cache put. Durations are microseconds; spans
// still open at render time report in_progress with their duration so
// far. The forest holds every span the job started: 2, plus 5 per
// fresh cell and 2 per cached one.
type JobTrace struct {
	JobID   string          `json:"job_id"`
	TraceID string          `json:"trace_id"`
	Spans   []*obs.SpanNode `json:"spans"`
}

// JobTrace renders the named job's span tree. It reports false for
// unknown or evicted jobs; a known job always renders (an in-flight
// sweep shows its open spans as in_progress).
func (s *Service) JobTrace(id string) (JobTrace, bool) {
	tr, ok := s.jobs.trace(id)
	if !ok {
		return JobTrace{}, false
	}
	spans := tr.Tree()
	if spans == nil {
		spans = []*obs.SpanNode{}
	}
	return JobTrace{JobID: id, TraceID: tr.ID(), Spans: spans}, true
}

func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jt, ok := s.JobTrace(id)
	if !ok {
		writeError(w, notFoundf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, jt)
}
