package metrics

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// thresholdDetector flags sessions containing a key above a threshold.
type thresholdDetector struct{ limit int }

func (d *thresholdDetector) Name() string      { return "threshold" }
func (d *thresholdDetector) Fit(train [][]int) {}
func (d *thresholdDetector) Flag(keys []int) bool {
	for _, k := range keys {
		if k > d.limit {
			return true
		}
	}
	return false
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 18, FN: 2}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("recall = %v", got)
	}
	if got := c.F1(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("f1 = %v", got)
	}
	if got := c.FPR(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("fpr = %v", got)
	}
	if got := c.FNR(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("fnr = %v", got)
	}
}

func TestConfusionZeroDivision(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.FPR() != 0 || c.FNR() != 0 {
		t.Fatal("empty confusion must yield zeros, not NaN")
	}
}

func TestEvaluate(t *testing.T) {
	d := &thresholdDetector{limit: 10}
	normal := map[string][][]int{
		"V1": {{1, 2}, {3, 4}, {99, 1}}, // one FP
		"V2": {{5, 6}},
	}
	abnormal := map[string][][]int{
		"A1": {{50, 1}, {2, 3}}, // one FN
	}
	ev := Evaluate(d, normal, abnormal)
	if math.Abs(ev.FPR["V1"]-1.0/3.0) > 1e-12 || ev.FPR["V2"] != 0 {
		t.Fatalf("FPR = %v", ev.FPR)
	}
	if math.Abs(ev.FNR["A1"]-0.5) > 1e-12 {
		t.Fatalf("FNR = %v", ev.FNR)
	}
	if ev.Confusion.TP != 1 || ev.Confusion.FP != 1 || ev.Confusion.TN != 3 || ev.Confusion.FN != 1 {
		t.Fatalf("confusion = %+v", ev.Confusion)
	}
	if math.Abs(ev.Precision-0.5) > 1e-12 || math.Abs(ev.Recall-0.5) > 1e-12 {
		t.Fatalf("P=%v R=%v", ev.Precision, ev.Recall)
	}
}

// Property: F1 is always between min and max of precision and recall,
// and all rates are in [0,1].
func TestMetricBounds(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		p, r, f1 := c.Precision(), c.Recall(), c.F1()
		inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
		if !inUnit(p) || !inUnit(r) || !inUnit(f1) || !inUnit(c.FPR()) || !inUnit(c.FNR()) {
			return false
		}
		lo, hi := math.Min(p, r), math.Max(p, r)
		return f1 >= lo-1e-12 && f1 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPerfectDetector(t *testing.T) {
	d := &thresholdDetector{limit: 10}
	normal := map[string][][]int{"V1": {{1}, {2}}}
	abnormal := map[string][][]int{"A1": {{11}, {12}}}
	ev := Evaluate(d, normal, abnormal)
	if ev.F1 != 1 || ev.Precision != 1 || ev.Recall != 1 {
		t.Fatalf("perfect detector scored %+v", ev)
	}
}

func TestEvaluateParallelMatchesSequential(t *testing.T) {
	d := &thresholdDetector{limit: 10}
	normal := map[string][][]int{
		"V1": {{1, 2}, {3, 4}, {99, 1}, {5}, {12}},
		"V2": {{5, 6}, {7}, {42, 1}},
	}
	abnormal := map[string][][]int{
		"A1": {{50, 1}, {2, 3}, {11}, {4}},
	}
	// GOMAXPROCS(1) flags on one worker, in order; 4 fans out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq := Evaluate(d, normal, abnormal)
	runtime.GOMAXPROCS(4)
	par := Evaluate(d, normal, abnormal)
	if seq.Confusion != par.Confusion {
		t.Fatalf("confusion differs: %+v vs %+v", seq.Confusion, par.Confusion)
	}
	for k, v := range seq.FPR {
		if par.FPR[k] != v {
			t.Fatalf("FPR[%s] differs", k)
		}
	}
	for k, v := range seq.FNR {
		if par.FNR[k] != v {
			t.Fatalf("FNR[%s] differs", k)
		}
	}
	if seq.F1 != par.F1 {
		t.Fatal("F1 differs")
	}
}
