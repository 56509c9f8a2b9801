package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule of the choosing-metrics guide: a
// percentile is reported only when at least this many samples lie
// beyond it, so a "p99" is never one or two outliers.
const minBeyond = 10

// recorder keeps every latency observation of one phase, in
// microseconds. No histogram: percentiles are exact order statistics of
// the raw samples.
type recorder struct{ us []float64 }

func newRecorder(capacity int) *recorder { return &recorder{us: make([]float64, 0, capacity)} }

func (r *recorder) add(d time.Duration) { r.us = append(r.us, float64(d)/float64(time.Microsecond)) }

// sorted returns the samples in ascending order (sorting in place).
func (r *recorder) sorted() []float64 {
	sort.Float64s(r.us)
	return r.us
}

// rankOf is the nearest-rank index of quantile q among n sorted
// samples: the smallest sample with at least q·n samples at or below it.
func rankOf(n int, q float64) int {
	// q·n is computed in floating point: 0.9·110 comes out a hair above
	// 99, and must not be rounded up to 100.
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// orderStat is the exact q-quantile of ascending samples by nearest
// rank — always one of the observed values, never an interpolation.
func orderStat(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)]
}

// supported reports whether quantile q of n samples has at least
// minBeyond samples strictly beyond it.
func supported(n int, q float64) bool {
	return n > 0 && n-1-rankOf(n, q) >= minBeyond
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method) — the acceptance rule this benchmark is held to is written in
// those terms, so compare uses the same arithmetic.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
