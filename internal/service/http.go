package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"valleymap/internal/obs"
)

// Handler returns the valleyd HTTP API:
//
//	POST   /v1/profile          entropy profile (JSON request, or text/csv trace body)
//	POST   /v1/advise           mapping recommendation with predicted entropy gains
//	POST   /v1/simulate         enqueue a workload x scheme sweep job (202);
//	                            ?stream=1 streams NDJSON events instead (200);
//	                            ?deadline_ms= / X-Deadline-Ms bound the job's runtime
//	GET    /v1/jobs/{id}        poll a sweep job
//	DELETE /v1/jobs/{id}        cancel an in-flight sweep job
//	GET    /v1/jobs/{id}/events stream the job's events as NDJSON (?from=seq resumes)
//	GET    /v1/jobs/{id}/trace  the job's span tree (accept → enqueue → cells → engine)
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus-style plain text
func (s *Service) Handler() http.Handler {
	routes := []struct {
		method, pattern, label string
		h                      http.HandlerFunc
	}{
		{"POST", "/v1/profile", "/v1/profile", s.handleProfile},
		{"POST", "/v1/advise", "/v1/advise", s.handleAdvise},
		{"POST", "/v1/simulate", "/v1/simulate", s.handleSimulate},
		{"GET", "/v1/jobs/{id}", "/v1/jobs", s.handleJob},
		{"DELETE", "/v1/jobs/{id}", "/v1/jobs", s.handleJobCancel},
		{"GET", "/v1/jobs/{id}/events", "/v1/jobs/events", s.handleJobEvents},
		{"GET", "/v1/jobs/{id}/trace", "/v1/jobs/trace", s.handleJobTrace},
		{"GET", "/healthz", "/healthz", s.handleHealthz},
		{"GET", "/metrics", "/metrics", s.handleMetrics},
	}
	mux := http.NewServeMux()
	// Patterns may carry several methods (GET + DELETE on /v1/jobs/{id}),
	// so the method-less twins are registered once per pattern with the
	// full Allow set — registering one per route would panic on the
	// duplicate pattern.
	type patternInfo struct {
		label   string
		methods []string
	}
	patterns := map[string]*patternInfo{}
	order := []string{}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" "+rt.pattern, s.instrument(rt.label, rt.h))
		pi, ok := patterns[rt.pattern]
		if !ok {
			pi = &patternInfo{label: rt.label}
			patterns[rt.pattern] = pi
			order = append(order, rt.pattern)
		}
		pi.methods = append(pi.methods, rt.method)
	}
	for _, pattern := range order {
		// The method-less twin catches wrong-method requests on a known
		// path (the method-qualified patterns are more specific, so real
		// traffic never lands here) and keeps them instrumented under
		// the same path label instead of falling to the catch-all.
		pi := patterns[pattern]
		allow := strings.Join(pi.methods, ", ")
		mux.HandleFunc(pattern, s.instrument(pi.label, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			writeJSON(w, http.StatusMethodNotAllowed,
				apiError{Error: fmt.Sprintf("method %s not allowed (want %s)", r.Method, allow)})
		}))
	}
	// Catch-all: unmatched paths would otherwise bypass the
	// instrumentation entirely — no request log, no latency sample.
	// They all share the single capped "other" label, so the metric
	// tables stay bounded under path-scanning traffic (the raw URL still
	// appears in the debug request log).
	mux.HandleFunc("/", s.instrument("other", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, notFoundf("no such endpoint %q", r.URL.Path))
	}))
	return mux
}

// statusRecorder captures the response code for metrics.
//
// Wrapping a ResponseWriter hides the underlying writer's optional
// interfaces behind the embedded-interface promotion, so the ones the
// handlers rely on are forwarded explicitly: Flush (NDJSON streaming)
// and Hijack (anything taking over the connection). The rest are
// dropped deliberately — io.ReaderFrom (sendfile) would bypass the
// recorded status code on its fast path, and http.Pusher is HTTP/2
// only, which the plain valleyd listener never negotiates. A handler
// needing one of those must grow an explicit forwarder here, not
// unwrap the recorder.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the NDJSON streaming
// handlers can push each event to the client as it is published.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack forwards connection takeover to the wrapped writer, erroring
// (like net/http itself) when the underlying writer does not support
// it rather than panicking on a type assertion.
func (r *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	h, ok := r.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("underlying ResponseWriter (%T) does not support hijacking", r.ResponseWriter)
	}
	return h.Hijack()
}

// instrument wraps a handler with the request-scoped observability
// layer: a fresh trace ID (or the client's X-Trace-Id), a child logger
// carrying trace_id/path (and tenant, from X-Tenant, when present)
// reachable downstream via obs.Logger(ctx), the per-path request
// counter and the request-latency histogram. path is the bounded label
// value, not the raw URL.
func (s *Service) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		traceID := r.Header.Get("X-Trace-Id")
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		log := s.log.With("trace_id", traceID, "path", path)
		if tenant := r.Header.Get("X-Tenant"); tenant != "" {
			log = log.With("tenant", tenant)
		}
		ctx := obs.WithLogger(r.Context(), log)
		ctx = obs.WithTraceID(ctx, traceID)
		ctx = obs.WithAcceptTime(ctx, start)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r.WithContext(ctx))
		d := time.Since(start)
		s.metrics.observeRequest(path, rec.code, d)
		log.Debug("request",
			"method", r.Method,
			"url", r.URL.Path,
			"status", rec.code,
			"duration_ms", d.Milliseconds(),
			"remote", r.RemoteAddr,
		)
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var br badRequestError
	var nf notFoundError
	var ov overloadedError
	switch {
	case errors.As(err, &br):
		code = http.StatusBadRequest
	case errors.As(err, &nf):
		code = http.StatusNotFound
	case errors.As(err, new(tooBusyError)):
		code = http.StatusTooManyRequests
	case errors.As(err, &ov):
		code = http.StatusServiceUnavailable
	case errors.As(err, new(overloadedBody)):
		code = http.StatusRequestEntityTooLarge
	}
	// Capacity errors that can price the backlog tell clients when to
	// come back instead of inviting an immediate retry storm.
	var rh retryHinter
	if errors.As(err, &rh) {
		if sec := rh.retryAfterSeconds(); sec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(sec))
		}
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

func decodeJSON(r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return overloadedBody{"request body", limit}
		}
		return badRequestf("bad request body: %v", err)
	}
	return nil
}

// overloadedBody is surfaced as 413 by writeError; what names the
// oversize part of the request.
type overloadedBody struct {
	what  string
	limit int64
}

func (e overloadedBody) Error() string {
	return fmt.Sprintf("%s exceeds %d byte limit", e.what, e.limit)
}

// jsonBodyLimit is the cap for plain JSON control requests; endpoints
// that embed traces (profile, advise) get trace headroom on top.
const jsonBodyLimit = 1 << 20

// maxJSONTraceBytes caps JSON-embedded traces. Unlike text/csv bodies,
// a trace_csv string is fully materialized in memory before profiling,
// so it keeps the old 64 MiB bound even when MaxTraceBytes is raised
// for the streaming upload path; a smaller configured cap still wins.
const maxJSONTraceBytes = 64 << 20

func (s *Service) traceBodyLimit() int64 {
	limit := s.cfg.MaxTraceBytes
	if limit > maxJSONTraceBytes {
		limit = maxJSONTraceBytes
	}
	return limit + jsonBodyLimit
}

// profileEnvelope wraps a ProfileResult with its cache outcome.
type profileEnvelope struct {
	*ProfileResult
	CacheHit bool `json:"cache_hit"`
}

// mediaType extracts the request's media type, lowercased and with
// parameters stripped (media types are case-insensitive, RFC 9110 §8.3).
func mediaType(r *http.Request) string {
	ct := strings.ToLower(r.Header.Get("Content-Type"))
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// binaryTraceMediaType negotiates VTRC binary trace bodies; CSV stays
// the default for text bodies.
const binaryTraceMediaType = "application/x-valley-trace"

func (s *Service) handleProfile(w http.ResponseWriter, r *http.Request) {
	var (
		res *ProfileResult
		hit bool
		err error
	)
	switch mediaType(r) {
	case "text/csv", "text/plain":
		// Streaming uploads: analysis options ride in query parameters.
		res, hit, err = s.streamProfileBody(w, r, s.ProfileStream)
	case binaryTraceMediaType:
		res, hit, err = s.streamProfileBody(w, r, s.ProfileStreamBinary)
	default:
		var req ProfileRequest
		if err = decodeJSON(r, &req, s.traceBodyLimit()); err == nil {
			res, hit, err = s.Profile(req)
		}
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, profileEnvelope{ProfileResult: res, CacheHit: hit})
}

// streamProfileBody runs one streaming trace upload — profile selects
// the container decoder — under the shared MaxTraceBytes accounting,
// identical for CSV and binary bodies.
func (s *Service) streamProfileBody(w http.ResponseWriter, r *http.Request,
	profile func(io.Reader, ProfileRequest) (*ProfileResult, bool, error)) (*ProfileResult, bool, error) {
	var req ProfileRequest
	if err := profileQueryOptions(r, &req); err != nil {
		return nil, false, err
	}
	// The decoder may trip on the truncated final record before the
	// reader's limit error surfaces, so classify by bytes consumed.
	// The reader allows one byte past the cap: a body of n > cap bytes
	// is oversize whether or not it decoded, while a malformed trace of
	// exactly cap bytes still reports 400.
	cr := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes+1)}
	res, hit, err := profile(cr, req)
	var mbe *http.MaxBytesError
	switch {
	case cr.n > s.cfg.MaxTraceBytes || errors.As(err, &mbe):
		return nil, false, overloadedBody{"trace", s.cfg.MaxTraceBytes}
	case err != nil && !errors.As(err, new(badRequestError)):
		return nil, false, badRequestf("bad trace: %v", err)
	}
	return res, hit, err
}

// countingReader tracks bytes delivered, so size-limit hits can be
// told apart from genuinely malformed traces.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// profileQueryOptions parses ?window=&bits=&line_bytes=&scheme=&seed=
// for CSV-body uploads.
func profileQueryOptions(r *http.Request, req *ProfileRequest) error {
	q := r.URL.Query()
	for name, dst := range map[string]*int{"window": &req.Window, "bits": &req.Bits, "line_bytes": &req.LineBytes} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return badRequestf("bad %s %q", name, v)
			}
			*dst = n
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return badRequestf("bad seed %q", v)
		}
		req.Seed = n
	}
	req.Scheme = q.Get("scheme")
	return nil
}

func (s *Service) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req AdviseRequest
	if err := decodeJSON(r, &req, s.traceBodyLimit()); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.Advise(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	// Simulate sweeps built-in workloads; it never carries a trace
	// body, so trace media types are rejected explicitly instead of
	// being fed to the JSON decoder's confusing syntax error.
	if ct := mediaType(r); ct == binaryTraceMediaType || ct == "text/csv" {
		writeError(w, badRequestf("/v1/simulate takes a JSON body (trace uploads go to /v1/profile); got Content-Type %q", ct))
		return
	}
	stream := r.URL.Query().Get("stream")
	if stream != "" && stream != "0" && stream != "1" {
		writeError(w, badRequestf("bad stream %q (want 0 or 1)", stream))
		return
	}
	var req SimulateRequest
	if err := decodeJSON(r, &req, jsonBodyLimit); err != nil {
		writeError(w, err)
		return
	}
	ctx := r.Context()
	budget, err := deadlineBudget(r, s.cfg.DefaultDeadline)
	if err != nil {
		writeError(w, err)
		return
	}
	if budget > 0 {
		// The deadline rides the request context into SimulateCtx, which
		// lifts the instant onto the job's own context — the job outlives
		// this handler; only the deadline carries over, so canceling here
		// merely releases the timer.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	job, err := s.SimulateCtx(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	if stream == "1" {
		// Stream the sweep live: NDJSON events from seq 0, so the
		// client sees start, every cell the moment it finishes, and the
		// terminal done/failed record — no polling. The subscription
		// replays from the retained log, so nothing between Simulate
		// and subscribe can be missed.
		if sub, ok := s.jobs.subscribe(job.ID, 0); ok {
			defer sub.Close()
			streamEvents(w, r, sub)
			// A streamed sweep's client is its only consumer: if the
			// stream ended before the terminal event (disconnect, write
			// failure), the sweep is abandoned — cancel it so its cells
			// free their worker slots instead of burning to completion.
			// For terminal jobs the cancel function is already gone, so
			// this is a no-op on clean completion.
			s.CancelJob(job.ID, "client disconnected from streamed sweep")
			return
		}
		// The job aged out before we could attach (only possible under
		// extreme churn); the 202 handle still lets the client poll.
	}
	writeJSON(w, http.StatusAccepted, job)
}

// deadlineBudget resolves a simulate request's execution budget:
// ?deadline_ms wins, then the X-Deadline-Ms header, then the daemon
// default (0 = unbounded).
func deadlineBudget(r *http.Request, def time.Duration) (time.Duration, error) {
	v := r.URL.Query().Get("deadline_ms")
	src := "deadline_ms"
	if v == "" {
		v = r.Header.Get("X-Deadline-Ms")
		src = "X-Deadline-Ms"
	}
	if v == "" {
		return def, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0, badRequestf("bad %s %q (want a positive integer millisecond budget)", src, v)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// handleJobCancel cancels an in-flight job (DELETE /v1/jobs/{id}). The
// response is the job's snapshot at cancel time; the terminal canceled
// event lands once running cells observe the dead context, so a
// just-canceled job may still report status running. Canceling a job
// that already reached a terminal state is a no-op 200.
func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, notFoundf("unknown job %q", id))
		return
	}
	s.CancelJob(id, "canceled via DELETE /v1/jobs/"+id)
	job, ok := s.Job(id)
	if !ok {
		writeError(w, notFoundf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, notFoundf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleJobEvents streams a job's events as NDJSON. ?from=seq resumes
// after a disconnect: retained events with Seq >= from replay first,
// then the stream tails live until the terminal event.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, badRequestf("bad from %q (want a non-negative event seq)", v))
			return
		}
		from = n
	}
	sub, ok := s.jobs.subscribe(id, from)
	if !ok {
		writeError(w, notFoundf("unknown job %q", id))
		return
	}
	defer sub.Close()
	streamEvents(w, r, sub)
}

// streamEvents drains a subscription into w as NDJSON, one event per
// line, flushing after each so clients observe cells the moment they
// finish. It returns when the job's terminal event has been written,
// the client disconnects, or a write fails.
func streamEvents(w http.ResponseWriter, r *http.Request, sub *JobSubscription) {
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		ev, eos, err := sub.Next(r.Context())
		if eos || err != nil {
			return
		}
		if err := enc.Encode(ev); err != nil {
			return // client gone; nothing to do
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteTo(w) //nolint:errcheck // client gone; nothing to do
}
