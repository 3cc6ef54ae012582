package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Collector renders one or more complete metric families (HELP/TYPE
// preamble plus sample lines) into a Prometheus text-format buffer.
type Collector interface {
	Collect(b []byte) []byte
}

// appendHeader writes a family's HELP/TYPE preamble. Every collector in
// this package renders its preamble through it.
func appendHeader(b []byte, name, help, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// appendSample writes one sample line. labels is the pre-rendered
// `k="v",` form children carry ("" for none).
func appendSample(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, strings.TrimSuffix(labels, ",")...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		// Integral values render as plain integers, so a counter reads
		// 1234567 rather than 1.234567e+06.
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

// labelPairs renders label values as the `k="v",` pairs a child
// carries, in label-name order.
func labelPairs(family string, names, values []string) string {
	if len(values) != len(names) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", family, len(names), len(values)))
	}
	var sb strings.Builder
	for i, val := range values {
		sb.WriteString(names[i])
		sb.WriteString("=")
		sb.WriteString(strconv.Quote(val))
		sb.WriteString(",")
	}
	return sb.String()
}

// vec is the child table behind CounterVec and HistogramVec. Children
// are created on first use and live for the process lifetime, so hot
// paths should resolve their child once and hold it.
type vec[T any] struct {
	name       string
	labelNames []string

	mu       sync.Mutex
	children map[string]T
	order    []string // creation order, for stable exposition
}

func newVec[T any](name string, labelNames []string) vec[T] {
	if len(labelNames) == 0 {
		panic("obs: " + name + " needs label names (use the unlabeled constructor)")
	}
	return vec[T]{name: name, labelNames: labelNames, children: map[string]T{}}
}

// with returns the child for values, building it with mk on first use.
func (v *vec[T]) with(values []string, mk func(labels string) T) T {
	key := labelPairs(v.name, v.labelNames, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = mk(key)
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c
}

// all returns the children in creation order.
func (v *vec[T]) all() []T {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]T, 0, len(v.order))
	for _, key := range v.order {
		out = append(out, v.children[key])
	}
	return out
}

// GaugeFunc is a gauge family sampled at render time.
type GaugeFunc struct {
	Name string
	Help string
	Fn   func() float64
}

// Collect implements Collector.
func (g GaugeFunc) Collect(b []byte) []byte {
	b = appendHeader(b, g.Name, g.Help, "gauge")
	return appendSample(b, g.Name, "", g.Fn())
}

// Registry is an ordered set of collectors rendered into one exposition
// document. Registration order is exposition order, which keeps
// /metrics output stable for tests and diffing.
type Registry struct {
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector. Registration is construction-time
// wiring, not hot path; it is not synchronized.
func (r *Registry) Register(c Collector) { r.collectors = append(r.collectors, c) }

// Collect renders every registered collector in order.
func (r *Registry) Collect(b []byte) []byte {
	for _, c := range r.collectors {
		b = c.Collect(b)
	}
	return b
}

// WriteTo renders the registry to w in Prometheus text format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(r.Collect(nil))
	return int64(n), err
}
