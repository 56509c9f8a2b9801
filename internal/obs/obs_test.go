package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative counter Add must panic")
			}
		}()
		c.Add(-1)
	}()

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(1)
	g.Add(-1)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
}

func TestRegistryRejectsDuplicatesAndBadNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "")
	for _, fn := range []func(){
		func() { r.Gauge("ok_total", "") },        // duplicate, different type
		func() { r.Counter("1bad", "") },          // leading digit
		func() { r.Counter("bad-name", "") },      // dash
		func() { r.CounterVec("v_total", "", "bad label") }, // invalid label
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("registration must panic")
				}
			}()
			fn()
		}()
	}
}

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("req_total", "", "code", "method")
	a := cv.With("200", "GET")
	b := cv.With("200", "GET")
	if a != b {
		t.Fatal("same label values must return the same child")
	}
	if cv.With("500", "GET") == a {
		t.Fatal("different label values must return distinct children")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatal("shared child state lost")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("label arity mismatch must panic")
			}
		}()
		cv.With("200")
	}()
}

func TestHistogramBucketAssignment(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le semantics are inclusive: 0.5 and 1 land in le="1"; 1.5 and 2 in
	// le="2"; 3 and 5 in le="5"; 7 and 100 overflow to +Inf.
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if math.Abs(s.Sum-120) > 1e-9 {
		t.Fatalf("sum = %v, want 120", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	// 1000 observations uniform over (0, 100]: quantiles interpolate to
	// q*100 exactly.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 10)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 0.2 {
			t.Fatalf("Quantile(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	// Overflow observations clamp to the highest finite bound.
	h2 := r.Histogram("q2", "", []float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 2 {
		t.Fatalf("overflow quantile = %v, want 2 (clamped)", got)
	}
	h3 := r.Histogram("q3", "", []float64{1})
	if !math.IsNaN(h3.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	if !math.IsNaN(h3.Quantile(1.5)) {
		t.Fatal("out-of-range q must be NaN")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{0.5, 1})
	cv := r.CounterVec("cv_total", "", "worker")

	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%2))
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) + 0.25) // alternates buckets
				cv.With(lbl).Inc()
				if i%64 == 0 { // scrape concurrently with writes
					var sb strings.Builder
					r.WriteText(&sb)
				}
			}
		}(w)
	}
	wg.Wait()

	total := int64(goroutines * perG)
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != float64(total) {
		t.Fatalf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != uint64(total) {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	s := h.Snapshot()
	// Observations alternate 0.25 (le="0.5" bucket) and 1.25 (+Inf
	// overflow bucket).
	if s.Counts[0] != uint64(total)/2 || s.Counts[2] != uint64(total)/2 {
		t.Fatalf("bucket split %v, want even halves in buckets 0 and +Inf", s.Counts)
	}
	if cv.With("a").Value()+cv.With("b").Value() != total {
		t.Fatal("vec children lost increments")
	}
}

func TestTimerObservesSeconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", "", []float64{0.001, 1})
	tm := StartTimer(h)
	time.Sleep(time.Millisecond)
	d := tm.Stop()
	if d < time.Millisecond {
		t.Fatalf("elapsed %v, want >= 1ms", d)
	}
	if h.Count() != 1 || h.Sum() < 0.001 {
		t.Fatalf("timer did not observe: count=%d sum=%v", h.Count(), h.Sum())
	}
	// nil-observer timers are pure stopwatches.
	if StartTimer(nil).Stop() < 0 {
		t.Fatal("stopwatch went backwards")
	}
}

func TestCounterAndGaugeFuncs(t *testing.T) {
	r := NewRegistry()
	n := int64(7)
	r.GaugeFunc("ext", "", func() float64 { return float64(n) * 0.5 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if want := "ext 3.5\n"; !strings.Contains(out, want) {
		t.Fatalf("exposition missing %q:\n%s", want, out)
	}
	n = 9 // funcs re-read at scrape time
	sb.Reset()
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "ext 4.5\n") {
		t.Fatal("GaugeFunc not re-read at scrape time")
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(0.5, 4, 3)
	if exp[0] != 0.5 || exp[1] != 2 || exp[2] != 8 {
		t.Fatalf("ExponentialBuckets = %v", exp)
	}
	// Trailing +Inf is accepted and made implicit.
	h := newHistogram([]float64{1, math.Inf(1)})
	h.Observe(2)
	if got := h.Snapshot(); len(got.Buckets) != 1 || got.Counts[1] != 1 {
		t.Fatalf("explicit +Inf bucket mishandled: %+v", got)
	}
}

func TestFuncVecsBindAndRemove(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterFuncVec("mt_events_total", "per-tenant events", "tenant")
	gv := r.GaugeFuncVec("mt_sessions_open", "per-tenant open sessions", "tenant")
	var a, b int64 = 3, 5
	cv.Bind(func() int64 { return a }, "t1")
	cv.Bind(func() int64 { return b }, "t2")
	gv.Bind(func() float64 { return float64(a) }, "t1")

	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		`mt_events_total{tenant="t1"} 3`,
		`mt_events_total{tenant="t2"} 5`,
		`mt_sessions_open{tenant="t1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Children re-read at scrape time.
	a = 11
	sb.Reset()
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), `mt_events_total{tenant="t1"} 11`) {
		t.Fatal("func child not re-read at scrape time")
	}

	// Double-binding a tuple is a wiring bug.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate Bind did not panic")
			}
		}()
		cv.Bind(func() int64 { return 0 }, "t1")
	}()

	// Remove drops the series; the tuple becomes bindable again.
	cv.Remove("t1")
	gv.Remove("t1")
	sb.Reset()
	r.WriteText(&sb)
	if strings.Contains(sb.String(), `tenant="t1"`) {
		t.Fatalf("removed children still exposed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `mt_events_total{tenant="t2"} 5`) {
		t.Fatal("Remove disturbed a sibling child")
	}
	cv.Bind(func() int64 { return 1 }, "t1")
}

func TestOwnedVecRemove(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("owned_total", "", "tenant")
	hv := r.HistogramVec("owned_seconds", "", []float64{1}, "tenant")
	cv.With("t1").Inc()
	cv.With("t2").Add(2)
	hv.With("t1").Observe(0.5)
	cv.Remove("t1")
	hv.Remove("t1")
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	if strings.Contains(out, `tenant="t1"`) {
		t.Fatalf("removed owned children still exposed:\n%s", out)
	}
	if !strings.Contains(out, `owned_total{tenant="t2"} 2`) {
		t.Fatal("sibling child lost")
	}
	// A fresh With after Remove starts a new child from zero.
	if got := cv.With("t1").Value(); got != 0 {
		t.Fatalf("recreated child = %d, want 0", got)
	}
}
