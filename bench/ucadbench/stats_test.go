package main

import (
	"math"
	"testing"
	"time"
)

func TestOrderStatIsAnObservedSample(t *testing.T) {
	var r recorder
	for i := 100; i >= 1; i-- { // unsorted on purpose
		r.add(time.Duration(i) * time.Microsecond)
	}
	s := r.sorted()
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}, {0.001, 1}} {
		if got := orderStat(s, tc.q); got != tc.want {
			t.Errorf("orderStat(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Two samples: the median is the lower one, never their mean.
	if got := orderStat([]float64{10, 20}, 0.5); got != 10 {
		t.Errorf("median of {10,20} = %v, want the observed sample 10", got)
	}
	if got := orderStat(nil, 0.5); got != 0 {
		t.Errorf("empty recorder quantile = %v, want 0", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // samples 991..1000 lie beyond the 990th
		{999, 0.99, false}, // rank 990 of 999 leaves 9
		{200, 0.95, true},  // 10 beyond
		{199, 0.95, false}, // 9 beyond
		{110, 0.90, true},  // 11 beyond
		{21, 0.50, true},   // 10 beyond the 11th
		{20, 0.50, true},   // 10 beyond the 10th
		{19, 0.50, false},  // 9 beyond the 10th
		{0, 0.50, false},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(n=%d, q=%v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) for these inputs.
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
	if got := spreadShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %v, want 1", got)
	}
}
