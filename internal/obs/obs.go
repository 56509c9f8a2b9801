// Package obs is the operational observability substrate for the
// serving and training stack: a concurrent metric registry with
// Counter, Gauge and fixed-bucket Histogram types, label support, and a
// Prometheus text-exposition writer.
//
// It is deliberately hand-rolled rather than a client_golang dependency
// (see DESIGN.md): the repo is dependency-free by constraint, the hot
// paths need nothing beyond a handful of atomics, and the stable subset
// of the exposition format we emit (text format 0.0.4: HELP/TYPE
// headers, counter/gauge samples, histogram _bucket/_sum/_count series)
// fits in one small file that any Prometheus-compatible scraper
// ingests.
//
// Two registration styles cover the two kinds of instrumentation:
//
//   - Owned instruments (Counter, Gauge, Histogram and their *Vec
//     label variants) are incremented by the instrumented code itself —
//     use these for new measurements such as latency histograms.
//   - Func-backed metrics (GaugeFunc, CounterFuncVec, GaugeFuncVec)
//     read an existing value at scrape time — use these to export
//     counters a subsystem already maintains, so the scrape and the
//     subsystem's own stats report one source of truth.
//
// A labelled family is declared where it is used: calling a *Vec
// constructor again with the same name, type, help, label names and
// buckets returns the family already registered, so a per-entity view
// declares and resolves its children in one step and no family table
// is kept beside the registry. Any other duplicate name panics — a
// mismatched re-declaration, an unlabelled instrument, GaugeFunc — as
// does a second Bind of one label tuple. RemoveLabel drops an entity's
// children from every family at once.
//
// All instrument operations (Inc, Add, Set, Observe, With) are safe for
// concurrent use and allocation-free on the hot path; registration is
// expected at wiring time and panics on misuse (conflicting or invalid
// names), mirroring the fail-fast convention of metric libraries.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered family: it renders its samples (all children
// for vec types) in exposition order.
type metric interface {
	writeTo(w io.Writer, name string)
}

// entry pairs a family's metadata with its samples.
type entry struct {
	name, help, typ string
	// shape identifies a labelled family's Go type (hence its exposition
	// type), label names and buckets; "" marks an unlabelled family,
	// which is never re-declarable.
	shape string
	m     metric
}

// labelled is implemented by every vec family.
type labelled interface {
	metric
	shape() string
	removeLabel(label, value string)
}

// Registry holds an independent set of metric families. The zero value
// is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register adds a family and returns it, or — for a labelled family
// declared again with the same type, help, labels and buckets — returns
// the family already registered under name. Any other duplicate and any
// invalid name panics: registration is wiring-time code where a silent
// collision would corrupt the scrape.
func (r *Registry) register(name, help, typ string, m metric) metric {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	shape := ""
	if l, ok := m.(labelled); ok {
		shape = fmt.Sprintf("%T %s", m, l.shape())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if shape == "" || e.shape != shape || e.help != help {
			panic("obs: duplicate metric name " + name)
		}
		return e.m
	}
	r.byName[name] = &entry{name: name, help: help, typ: typ, shape: shape, m: m}
	return m
}

// RemoveLabel drops every child whose label named label carries value,
// in every family (families without that label are untouched) — the
// cardinality release valve: when the entity a label value names is
// decommissioned, its series leave the exposition instead of lingering
// forever, whichever subsystem declared them.
func (r *Registry) RemoveLabel(label, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.byName {
		if l, ok := e.m.(labelled); ok {
			l.removeLabel(label, value)
		}
	}
}

// snapshot returns the registered families sorted by name (stable
// exposition order).
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// validName checks the Prometheus metric/label name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; counters only go up, so negative deltas panic.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeTo(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Gauge registers and returns a new gauge (initially 0).
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", g)
	return g
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) writeTo(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
}

// gaugeFunc exports an externally maintained instantaneous value.
type gaugeFunc func() float64

func (f gaugeFunc) writeTo(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(f()))
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", gaugeFunc(fn))
}

// vec is the shared child table behind the labelled metric variants:
// label values map to lazily created children, keyed by their rendered
// label string (which doubles as the exposition prefix).
type vec struct {
	labels []string
	mu     sync.RWMutex
	kids   map[string]*kid
}

// kid is one child of a vec with the label values it was created for.
type kid struct {
	key    string // rendered label string
	values []string
	m      any
}

func newVec(labels []string) *vec {
	for _, l := range labels {
		if !validName(l) {
			panic("obs: invalid label name " + l)
		}
	}
	return &vec{labels: labels, kids: make(map[string]*kid)}
}

func (v *vec) shape() string { return strings.Join(v.labels, ",") }

// key renders the label values, panicking on an arity mismatch.
func (v *vec) key(values []string) string {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: got %d label values, want %d", len(values), len(v.labels)))
	}
	return renderLabels(v.labels, values)
}

// child returns the child for the label values, creating it with mk on
// first use. The common case (child exists) takes only the read lock.
func (v *vec) child(values []string, mk func() any) any {
	key := v.key(values)
	v.mu.RLock()
	k, ok := v.kids[key]
	v.mu.RUnlock()
	if ok {
		return k.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if k, ok := v.kids[key]; ok {
		return k.m
	}
	k = &kid{key: key, values: append([]string(nil), values...), m: mk()}
	v.kids[key] = k
	return k.m
}

// bind installs c as the child for the label values, panicking if the
// tuple already has one (func-backed children are exclusive bindings,
// unlike the lazily created owned instruments).
func (v *vec) bind(values []string, c any) {
	key := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.kids[key]; ok {
		panic("obs: duplicate binding for {" + key + "}")
	}
	v.kids[key] = &kid{key: key, values: append([]string(nil), values...), m: c}
}

// removeLabel drops the children whose label named label carries value
// (a no-op when the family has no such label).
func (v *vec) removeLabel(label, value string) {
	i := slices.Index(v.labels, label)
	if i < 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for key, k := range v.kids {
		if k.values[i] == value {
			delete(v.kids, key)
		}
	}
}

// sorted returns the children in exposition order.
func (v *vec) sorted() []*kid {
	v.mu.RLock()
	out := make([]*kid, 0, len(v.kids))
	for _, k := range v.kids {
		out = append(out, k)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// renderLabels formats `l1="v1",l2="v2"` with exposition escaping.
func renderLabels(labels, values []string) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	*vec
}

// CounterVec registers a labelled counter family, or returns the one
// already declared identically under name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.register(name, help, "counter", &CounterVec{vec: newVec(labels)}).(*CounterVec)
}

// With returns the child counter for the label values, creating it on
// first use.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.child(values, func() any { return &Counter{} }).(*Counter)
}

func (cv *CounterVec) writeTo(w io.Writer, name string) {
	for _, k := range cv.sorted() {
		fmt.Fprintf(w, "%s{%s} %d\n", name, k.key, k.m.(*Counter).Value())
	}
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	*vec
}

// GaugeVec registers a labelled gauge family, or returns the one
// already declared identically under name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return r.register(name, help, "gauge", &GaugeVec{vec: newVec(labels)}).(*GaugeVec)
}

// With returns the child gauge for the label values, creating it on
// first use.
func (gv *GaugeVec) With(values ...string) *Gauge {
	return gv.child(values, func() any { return &Gauge{} }).(*Gauge)
}

func (gv *GaugeVec) writeTo(w io.Writer, name string) {
	for _, k := range gv.sorted() {
		fmt.Fprintf(w, "%s{%s} %s\n", name, k.key, formatFloat(k.m.(*Gauge).Value()))
	}
}
