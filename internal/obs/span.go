package obs

import (
	"sync"
	"time"
)

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a Trace. Its ID is its position in
// start order, from 1; Parent 0 means top level. A zero End means the
// span is still open.
type Span struct {
	Parent int
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Trace is a per-job span recorder: a mutex-guarded, append-only log of
// spans. Span ID i is entry i-1, so ending or annotating a span is one
// index. Nothing caps the log: a job bounds its own trace, at 2 spans
// plus 5 per fresh sweep cell and 2 per cached one. Safe for concurrent
// use; spans may start and end on different goroutines.
type Trace struct {
	id string

	mu    sync.Mutex
	spans []Span
}

// NewTrace builds an empty trace identified by id.
func NewTrace(id string) *Trace {
	return &Trace{id: id}
}

// ID returns the trace identifier (the job's trace_id).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SpanRef is a handle to a started span. The zero SpanRef is a no-op
// (Ends do nothing), so instrumentation can be written unconditionally
// against a nil trace.
type SpanRef struct {
	t  *Trace
	id int
}

// ID returns the span's ID (0 for the zero SpanRef), usable as a
// parent for child spans.
func (s SpanRef) ID() int { return s.id }

// Start opens a span now. parent is a SpanRef.ID (0 = top level). A nil
// trace returns the zero SpanRef.
func (t *Trace) Start(parent int, name string, attrs ...Attr) SpanRef {
	return t.StartAt(parent, name, time.Time{}, attrs...)
}

// StartAt opens a span with an explicit start time (zero = now), so
// queue waits and accept-to-enqueue gaps can be recorded after the
// fact.
func (t *Trace) StartAt(parent int, name string, at time.Time, attrs ...Attr) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if at.IsZero() {
		at = time.Now()
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Parent: parent, Name: name, Start: at, Attrs: attrs})
	id := len(t.spans)
	t.mu.Unlock()
	return SpanRef{t: t, id: id}
}

// End closes the span now.
func (s SpanRef) End() { s.EndAt(time.Time{}) }

// EndAt closes the span at an explicit time (zero = now).
func (s SpanRef) EndAt(at time.Time) {
	if s.t == nil {
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = at
	s.t.mu.Unlock()
}

// Annotate appends attributes to an open (or closed) span.
func (s SpanRef) Annotate(attrs ...Attr) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id-1]
	sp.Attrs = append(sp.Attrs, attrs...)
	s.t.mu.Unlock()
}

// SpanNode is one node of the rendered span tree (the JSON shape of
// GET /v1/jobs/{id}/trace). Durations are microseconds; an open span
// reports the duration up to render time and in_progress=true.
type SpanNode struct {
	ID         int               `json:"id"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	InProgress bool              `json:"in_progress,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*SpanNode       `json:"children,omitempty"`
}

// Tree renders the spans as a forest in start order, in one pass. A
// span whose parent is not an earlier span of this trace is a root.
func (t *Trace) Tree() []*SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	nodes := make([]*SpanNode, len(t.spans))
	var roots []*SpanNode
	for i, sp := range t.spans {
		n := &SpanNode{ID: i + 1, Name: sp.Name, Start: sp.Start}
		if sp.End.IsZero() {
			n.DurationUS = now.Sub(sp.Start).Microseconds()
			n.InProgress = true
		} else {
			n.DurationUS = sp.End.Sub(sp.Start).Microseconds()
		}
		if len(sp.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[i] = n
		if sp.Parent >= 1 && sp.Parent <= i {
			parent := nodes[sp.Parent-1]
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}
