// Package metrics implements the paper's evaluation protocol (§6.1):
// session-level detection with per-dataset false-positive/false-negative
// rates and aggregate precision, recall and F1 (abnormal = positive).
package metrics

import (
	"runtime"
	"sort"
	"sync"
)

// Detector is a session-level anomaly detector over statement-key
// sequences — the interface all baselines and UCAD satisfy.
type Detector interface {
	// Name identifies the method in reports.
	Name() string
	// Fit trains on normal sessions (unsupervised).
	Fit(train [][]int)
	// Flag reports whether the session is anomalous.
	Flag(keys []int) bool
}

// Confusion is a binary confusion matrix with abnormal as positive.
type Confusion struct {
	TP, FP, TN, FN int
}

// Precision is TP / (TP + FP); zero when undefined.
func (c Confusion) Precision() float64 { return safeDiv(c.TP, c.TP+c.FP) }

// Recall is TP / (TP + FN); zero when undefined.
func (c Confusion) Recall() float64 { return safeDiv(c.TP, c.TP+c.FN) }

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// FPR is FP / (FP + TN); zero when undefined.
func (c Confusion) FPR() float64 { return safeDiv(c.FP, c.FP+c.TN) }

// FNR is FN / (FN + TP); zero when undefined.
func (c Confusion) FNR() float64 { return safeDiv(c.FN, c.FN+c.TP) }

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Evaluation is the paper's Table 2 row for one method: FPR per normal
// testing set, FNR per abnormal set, and aggregate P/R/F1.
type Evaluation struct {
	Method    string
	FPR       map[string]float64
	FNR       map[string]float64
	Confusion Confusion
	Precision float64
	Recall    float64
	F1        float64
}

// Evaluate runs a fitted detector over named normal and abnormal
// testing sets and aggregates the confusion counts across all of them.
// Session flagging fans out over GOMAXPROCS goroutines, so the
// detector's Flag must be safe for concurrent use after Fit (true for
// every detector in this module: inference is read-only); the counts do
// not depend on the fan-out.
func Evaluate(d Detector, normal, abnormal map[string][][]int) Evaluation {
	workers := runtime.GOMAXPROCS(0)
	flagAll := func(sessions [][]int) []bool {
		out := make([]bool, len(sessions))
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					out[i] = d.Flag(sessions[i])
				}
			}()
		}
		for i := range sessions {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		return out
	}
	ev := Evaluation{
		Method: d.Name(),
		FPR:    make(map[string]float64, len(normal)),
		FNR:    make(map[string]float64, len(abnormal)),
	}
	for _, name := range sortedKeys(normal) {
		var c Confusion
		for _, flagged := range flagAll(normal[name]) {
			if flagged {
				c.FP++
			} else {
				c.TN++
			}
		}
		ev.FPR[name] = c.FPR()
		ev.Confusion.FP += c.FP
		ev.Confusion.TN += c.TN
	}
	for _, name := range sortedKeys(abnormal) {
		var c Confusion
		for _, flagged := range flagAll(abnormal[name]) {
			if flagged {
				c.TP++
			} else {
				c.FN++
			}
		}
		ev.FNR[name] = c.FNR()
		ev.Confusion.TP += c.TP
		ev.Confusion.FN += c.FN
	}
	ev.Precision = ev.Confusion.Precision()
	ev.Recall = ev.Confusion.Recall()
	ev.F1 = ev.Confusion.F1()
	return ev
}

func sortedKeys(m map[string][][]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
