package obs

import (
	"fmt"
	"io"
)

// Func-backed vec families: the labelled counterpart of GaugeFunc. The
// family is registered once at wiring time; each child is a
// read-at-scrape-time callback bound to one label-value tuple.
// This is the multi-tenant bridge: a subsystem instantiated once per
// tenant exports its live counters under a shared family, one child per
// tenant, without per-tenant metric names.
//
// Cardinality is whatever the caller binds — the registry never invents
// children — so a bounded tenant set keeps the exposition bounded, and
// Registry.RemoveLabel drops a decommissioned tenant's series entirely.

// CounterFuncVec is a counter family whose children are int64 callbacks
// partitioned by label values.
type CounterFuncVec struct {
	*vec
}

// CounterFuncVec registers a labelled func-backed counter family, or
// returns the one already declared identically under name.
func (r *Registry) CounterFuncVec(name, help string, labels ...string) *CounterFuncVec {
	return r.register(name, help, "counter", &CounterFuncVec{vec: newVec(labels)}).(*CounterFuncVec)
}

// Bind attaches fn as the child for the label values, panicking if the
// tuple is already bound — a rebind would silently shadow another
// subsystem's series, the same failure registration-time panics guard
// against for family names.
func (cv *CounterFuncVec) Bind(fn func() int64, values ...string) {
	cv.bind(values, fn)
}

func (cv *CounterFuncVec) writeTo(w io.Writer, name string) {
	for _, k := range cv.sorted() {
		fmt.Fprintf(w, "%s{%s} %d\n", name, k.key, k.m.(func() int64)())
	}
}

// GaugeFuncVec is a gauge family whose children are float64 callbacks
// partitioned by label values.
type GaugeFuncVec struct {
	*vec
}

// GaugeFuncVec registers a labelled func-backed gauge family, or
// returns the one already declared identically under name.
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	return r.register(name, help, "gauge", &GaugeFuncVec{vec: newVec(labels)}).(*GaugeFuncVec)
}

// Bind attaches fn as the child for the label values, panicking on a
// duplicate tuple (see CounterFuncVec.Bind).
func (gv *GaugeFuncVec) Bind(fn func() float64, values ...string) {
	gv.bind(values, gaugeFunc(fn))
}

func (gv *GaugeFuncVec) writeTo(w io.Writer, name string) {
	for _, k := range gv.sorted() {
		fmt.Fprintf(w, "%s{%s} %s\n", name, k.key, formatFloat(k.m.(gaugeFunc)()))
	}
}
