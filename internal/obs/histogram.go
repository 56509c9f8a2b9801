package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// LatencyBuckets resolve sub-millisecond stage latencies (10µs–2.5s) —
// the scoring hot path sits well under the conventional 5ms first bound.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5,
}

// ExponentialBuckets returns count buckets starting at start (> 0),
// each factor (> 1) times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if count < 1 || start <= 0 || factor <= 1 {
		panic("obs: ExponentialBuckets needs count >= 1, start > 0, factor > 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram counts observations into fixed buckets. Observations are
// lock-free (one atomic add into the matching bucket plus sum/count
// updates); a concurrent scrape may see a bucket increment slightly
// before the matching sum update, which is the standard exposition
// tolerance.
type Histogram struct {
	// upper holds the sorted finite bucket upper bounds; counts has one
	// extra slot for the +Inf overflow bucket.
	upper  []float64
	counts []atomic.Uint64
	sum    Gauge
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	upper := append([]float64(nil), buckets...)
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	if math.IsInf(upper[len(upper)-1], 1) {
		upper = upper[:len(upper)-1] // +Inf is implicit
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (strictly increasing; a trailing +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with v <= upper bound
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Buckets holds the finite upper bounds; Counts the per-bucket
	// (non-cumulative) observation counts, with one extra trailing slot
	// for the +Inf overflow bucket.
	Buckets []float64
	Counts  []uint64
	Count   uint64
	Sum     float64
}

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: append([]float64(nil), h.upper...),
		Counts:  make([]uint64, len(h.counts)),
		Count:   h.count.Load(),
		Sum:     h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing the target rank — the same estimate
// PromQL's histogram_quantile computes server-side. Observations in the
// +Inf overflow bucket clamp to the highest finite bound. Returns NaN
// for an empty histogram or q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	total := float64(h.count.Load())
	if total == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := q * total
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		cum += n
		if cum < rank {
			continue
		}
		if i == len(h.upper) { // +Inf bucket
			return h.upper[len(h.upper)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.upper[i-1]
		}
		frac := 1.0
		if n > 0 {
			frac = (rank - (cum - n)) / n
		}
		return lower + (h.upper[i]-lower)*frac
	}
	return h.upper[len(h.upper)-1]
}

func (h *Histogram) writeTo(w io.Writer, name string) {
	h.writeLabelled(w, name, "")
}

// writeLabelled emits the _bucket/_sum/_count series, merging le into
// an optional rendered label prefix (HistogramVec children).
func (h *Histogram) writeLabelled(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatFloat(ub), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.sum.Value()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(h.sum.Value()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
	}
}

// HistogramVec is a histogram family partitioned by label values; all
// children share one bucket layout.
type HistogramVec struct {
	*vec
	buckets []float64
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	newHistogram(buckets) // validate the layout once, up front
	hv := &HistogramVec{vec: newVec(labels), buckets: buckets}
	r.register(name, help, "histogram", hv)
	return hv
}

// With returns the child histogram for the label values, creating it on
// first use.
func (hv *HistogramVec) With(values ...string) *Histogram {
	return hv.child(values, func() any { return newHistogram(hv.buckets) }).(*Histogram)
}

func (hv *HistogramVec) writeTo(w io.Writer, name string) {
	for _, key := range hv.sortedKeys() {
		hv.mu.RLock()
		h := hv.kids[key].(*Histogram)
		hv.mu.RUnlock()
		h.writeLabelled(w, name, key)
	}
}
