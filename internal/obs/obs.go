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
// All instrument operations (Inc, Add, Set, Observe, With) are safe for
// concurrent use and allocation-free on the hot path; registration is
// expected at wiring time and panics on misuse (duplicate or invalid
// names), mirroring the fail-fast convention of metric libraries.
package obs

import (
	"fmt"
	"io"
	"math"
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
	m               metric
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

// register adds a family, panicking on duplicate or invalid names —
// registration is wiring-time code where a silent collision would
// corrupt the scrape.
func (r *Registry) register(name, help, typ string, m metric) {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic("obs: duplicate metric name " + name)
	}
	r.byName[name] = &entry{name: name, help: help, typ: typ, m: m}
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
	kids   map[string]any
}

func newVec(labels []string) *vec {
	for _, l := range labels {
		if !validName(l) {
			panic("obs: invalid label name " + l)
		}
	}
	return &vec{labels: labels, kids: make(map[string]any)}
}

// child returns the child for the label values, creating it with mk on
// first use. The common case (child exists) takes only the read lock.
func (v *vec) child(values []string, mk func() any) any {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: got %d label values, want %d", len(values), len(v.labels)))
	}
	key := renderLabels(v.labels, values)
	v.mu.RLock()
	c, ok := v.kids[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[key]; ok {
		return c
	}
	c = mk()
	v.kids[key] = c
	return c
}

// bind installs c as the child for the label values, panicking if the
// tuple already has one (func-backed children are exclusive bindings,
// unlike the lazily created owned instruments).
func (v *vec) bind(values []string, c any) {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: got %d label values, want %d", len(values), len(v.labels)))
	}
	key := renderLabels(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.kids[key]; ok {
		panic("obs: duplicate binding for {" + key + "}")
	}
	v.kids[key] = c
}

// Remove drops the child for the label values from every vec type
// (no-op when absent) — the cardinality release valve: when the entity
// a label value names is decommissioned, its series leave the
// exposition instead of lingering forever.
func (v *vec) Remove(values ...string) {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: got %d label values, want %d", len(values), len(v.labels)))
	}
	key := renderLabels(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.kids, key)
}

// sortedKeys returns the child keys in exposition order.
func (v *vec) sortedKeys() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{vec: newVec(labels)}
	r.register(name, help, "counter", cv)
	return cv
}

// With returns the child counter for the label values, creating it on
// first use.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.child(values, func() any { return &Counter{} }).(*Counter)
}

func (cv *CounterVec) writeTo(w io.Writer, name string) {
	for _, key := range cv.sortedKeys() {
		cv.mu.RLock()
		c := cv.kids[key].(*Counter)
		cv.mu.RUnlock()
		fmt.Fprintf(w, "%s{%s} %d\n", name, key, c.Value())
	}
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	*vec
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{vec: newVec(labels)}
	r.register(name, help, "gauge", gv)
	return gv
}

// With returns the child gauge for the label values, creating it on
// first use.
func (gv *GaugeVec) With(values ...string) *Gauge {
	return gv.child(values, func() any { return &Gauge{} }).(*Gauge)
}

func (gv *GaugeVec) writeTo(w io.Writer, name string) {
	for _, key := range gv.sortedKeys() {
		gv.mu.RLock()
		g := gv.kids[key].(*Gauge)
		gv.mu.RUnlock()
		fmt.Fprintf(w, "%s{%s} %s\n", name, key, formatFloat(g.Value()))
	}
}
