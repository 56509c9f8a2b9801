package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/ucad/ucad/internal/baselines"
	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/metrics"
	"github.com/ucad/ucad/internal/preprocess"
	"github.com/ucad/ucad/internal/tensor"
	"github.com/ucad/ucad/internal/workload"
)

// Figure6Result is the attention-weight introspection of one session.
type Figure6Result struct {
	Keys      []int
	Templates []string
	// Weights is the head-averaged attention of the first block.
	Weights *tensor.Matrix
	// MostRelevant[i] is the context position with the highest weight
	// for output position i (the paper's red squares).
	MostRelevant []int
}

// Figure6 trains Trans-DAS on Scenario-II and visualizes the first
// attention block's weights for a normal session, reproducing the
// paper's observation that semantically related operations (same table,
// consecutive related queries) attend to each other.
func Figure6(opt Options, w io.Writer) Figure6Result {
	data := PrepareScenarioII(opt)
	d := core.NewDetector(data.Cfg)
	d.Fit(data.Train)

	// Pick the most template-diverse session for a readable heatmap
	// (the paper's example has ~12 distinct statements).
	best, bestDistinct := data.Normal["V1"][0], 0
	for _, s := range data.Normal["V1"] {
		distinct := map[int]bool{}
		limit := len(s)
		if limit > 13 {
			limit = 13
		}
		for _, k := range s[:limit] {
			distinct[k] = true
		}
		if len(distinct) > bestDistinct {
			best, bestDistinct = s, len(distinct)
		}
	}
	keys := best
	if len(keys) > 13 {
		keys = keys[:13]
	}
	heads := d.Model().AttentionWeights(keys)
	avg := tensor.NewMatrix(len(keys), len(keys))
	for _, h := range heads {
		for i := range avg.Data {
			avg.Data[i] += h.Data[i] / float64(len(heads))
		}
	}
	res := Figure6Result{Keys: keys, Weights: avg}
	for _, k := range keys {
		res.Templates = append(res.Templates, data.Vocab.Template(k))
	}
	for i := 0; i < avg.Rows; i++ {
		best, bestW := 0, -1.0
		for j := 0; j < avg.Cols; j++ {
			if wgt := avg.At(i, j); wgt > bestW {
				best, bestW = j, wgt
			}
		}
		res.MostRelevant = append(res.MostRelevant, best)
	}
	if w != nil {
		fmt.Fprintf(w, "Figure 6: first-block attention weights (scale=%s)\n", opt.Scale)
		fmt.Fprint(w, "      ")
		for _, k := range keys {
			fmt.Fprintf(w, "%5d", k)
		}
		fmt.Fprintln(w)
		for i := 0; i < avg.Rows; i++ {
			fmt.Fprintf(w, "%5d ", keys[i])
			for j := 0; j < avg.Cols; j++ {
				mark := " "
				if j == res.MostRelevant[i] {
					mark = "*"
				}
				fmt.Fprintf(w, "%s%.2f", mark, avg.At(i, j))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "\nKey  Statement template")
		for i, k := range keys {
			tpl := res.Templates[i]
			if len(tpl) > 72 {
				tpl = tpl[:69] + "..."
			}
			fmt.Fprintf(w, "%4d %s\n", k, tpl)
		}
		fmt.Fprintln(w)
	}
	return res
}

// FigurePoint is one (x, F1) measurement of a sensitivity curve.
type FigurePoint struct {
	X  float64
	F1 float64
}

// Figure7Result holds the four sensitivity curves for one scenario.
type Figure7Result struct {
	Scenario string
	P        []FigurePoint
	L        []FigurePoint
	G        []FigurePoint
	H        []FigurePoint
}

// Figure7 regenerates the hyper-parameter sensitivity study: F1 versus
// top-p, input size L, margin g and latent dimension h.
func Figure7(opt Options, w io.Writer) []Figure7Result {
	var out []Figure7Result
	for _, scenario := range []int{1, 2} {
		prepareFn := PrepareScenarioI
		if scenario == 2 {
			prepareFn = PrepareScenarioII
		}
		res := Figure7Result{Scenario: fmt.Sprintf("Scenario-%d", scenario)}

		// p varies at detection time only: train once, sweep the rank
		// threshold.
		data := prepareFn(opt)
		base := core.NewDetector(data.Cfg)
		base.Fit(data.Train)
		pGrid := []int{1, 2, 3, 5, 8, 10, 12}
		if opt.Scale == ScaleQuick {
			pGrid = []int{1, 3, 6, 8, 10, 12} // p is detection-only: no retraining
		}
		for _, p := range pGrid {
			d := detectorWithTopP(base, p)
			ev := metrics.Evaluate(d, data.Normal, data.Abnormal)
			res.P = append(res.P, FigurePoint{X: float64(p), F1: ev.F1})
		}

		retrain := func(mutate func(d *ScenarioData)) float64 {
			data := prepareFn(opt)
			mutate(data)
			d := core.NewDetector(data.Cfg)
			d.Fit(data.Train)
			return metrics.Evaluate(d, data.Normal, data.Abnormal).F1
		}

		lGrid := opt.lGrid()
		for _, l := range lGrid {
			f1 := retrain(func(d *ScenarioData) { d.Cfg.Window = l })
			res.L = append(res.L, FigurePoint{X: float64(l), F1: f1})
		}
		gGrid := []float64{0.1, 0.5, 1.0}
		if opt.Scale != ScaleQuick {
			gGrid = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
		}
		for _, g := range gGrid {
			f1 := retrain(func(d *ScenarioData) { d.Cfg.Margin = g })
			res.G = append(res.G, FigurePoint{X: g, F1: f1})
		}
		for _, h := range opt.hGrid() {
			f1 := retrain(func(d *ScenarioData) {
				d.Cfg.Hidden = h
				for h%d.Cfg.Heads != 0 {
					d.Cfg.Heads--
				}
			})
			res.H = append(res.H, FigurePoint{X: float64(h), F1: f1})
		}
		out = append(out, res)
		if w != nil {
			fmt.Fprintf(w, "Figure 7 (%s, scale=%s)\n", res.Scenario, opt.Scale)
			printCurve(w, "top-p", res.P)
			printCurve(w, "input size L", res.L)
			printCurve(w, "margin g", res.G)
			printCurve(w, "latent dim h", res.H)
			fmt.Fprintln(w)
		}
	}
	return out
}

// topPOverride wraps a fitted UCAD detector with a different top-p.
type topPOverride struct {
	inner *core.Detector
	p     int
}

func detectorWithTopP(d *core.Detector, p int) metrics.Detector {
	return &topPOverride{inner: d, p: p}
}

// Name implements metrics.Detector.
func (t *topPOverride) Name() string { return fmt.Sprintf("UCAD(p=%d)", t.p) }

// Fit implements metrics.Detector (the inner detector is already fit).
func (t *topPOverride) Fit(train [][]int) {}

// Flag implements metrics.Detector using the rank directly.
func (t *topPOverride) Flag(keys []int) bool {
	m := t.inner.Model()
	if m == nil {
		return false
	}
	cfg := m.Config()
	for pos := cfg.MinContext; pos < len(keys); pos++ {
		if m.RankOf(keys[:pos], keys[pos]) > t.p {
			return true
		}
	}
	return false
}

func printCurve(w io.Writer, name string, pts []FigurePoint) {
	fmt.Fprintf(w, "  %-14s", name)
	for _, p := range pts {
		fmt.Fprintf(w, " (%g, %.3f)", p.X, p.F1)
	}
	fmt.Fprintln(w)
}

// Figure8Row is one detector's F1 across contamination ratios.
type Figure8Row struct {
	Method string
	F1     []FigurePoint
}

// Figure8Result holds the robustness study for one scenario.
type Figure8Result struct {
	Scenario string
	Ratios   []float64
	Rows     []Figure8Row
}

// Figure8 regenerates the robustness-to-hybrid-data study: every method
// is trained on a training set containing the given ratio of abnormal
// sessions. A "UCAD+clean" row additionally runs the preprocessing
// module's noise removal first — the ablation DESIGN.md calls out.
func Figure8(opt Options, w io.Writer) []Figure8Result {
	ratios := []float64{0, 0.1, 0.2}
	if opt.Scale != ScaleQuick {
		ratios = []float64{0, 0.05, 0.10, 0.15, 0.20}
	}
	var out []Figure8Result
	for _, scenario := range []int{1, 2} {
		prepareFn := PrepareScenarioI
		if scenario == 2 {
			prepareFn = PrepareScenarioII
		}
		res := Figure8Result{Scenario: fmt.Sprintf("Scenario-%d", scenario), Ratios: ratios}
		rows := map[string]*Figure8Row{}
		order := []string{}
		record := func(method string, ratio, f1 float64) {
			row, ok := rows[method]
			if !ok {
				row = &Figure8Row{Method: method}
				rows[method] = row
				order = append(order, method)
			}
			row.F1 = append(row.F1, FigurePoint{X: ratio, F1: f1})
		}
		for _, ratio := range ratios {
			data := prepareFn(opt)
			dirty := data.Gen.Contaminate(data.Suite.Train, ratio)
			dirtyKeys := workload.Keyed(data.Vocab, dirty)

			detectors := append(baselineSet(opt), core.NewDetector(data.Cfg))
			for _, d := range detectors {
				d.Fit(dirtyKeys)
				ev := metrics.Evaluate(d, data.Normal, data.Abnormal)
				record(d.Name(), ratio, ev.F1)
			}
			// UCAD with the preprocessing module's noise removal.
			cleaned, _ := preprocess.Clean(dirty, cleanConfigFor(opt), rand.New(rand.NewSource(opt.Seed)))
			cleanDet := core.NewDetector(data.Cfg)
			cleanDet.DisplayName = "UCAD+clean"
			cleanDet.Fit(workload.Keyed(data.Vocab, cleaned))
			record(cleanDet.Name(), ratio, metrics.Evaluate(cleanDet, data.Normal, data.Abnormal).F1)
		}
		for _, name := range order {
			res.Rows = append(res.Rows, *rows[name])
		}
		out = append(out, res)
		if w != nil {
			fmt.Fprintf(w, "Figure 8 (%s, scale=%s): F1 vs training contamination\n", res.Scenario, opt.Scale)
			fmt.Fprintf(w, "%-24s", "Method")
			for _, r := range ratios {
				fmt.Fprintf(w, " %6.0f%%", r*100)
			}
			fmt.Fprintln(w)
			for _, row := range res.Rows {
				fmt.Fprintf(w, "%-24s", row.Method)
				for _, p := range row.F1 {
					fmt.Fprintf(w, " %7.4f", p.F1)
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintln(w)
		}
	}
	return out
}

// cleanConfigFor relaxes DBSCAN for small training sets.
func cleanConfigFor(opt Options) preprocess.CleanConfig {
	cfg := preprocess.DefaultCleanConfig()
	// Contamination removal only needs the noise/rare-cluster rules; the
	// balancing and length pruning would discard legitimate sessions the
	// small training sets cannot spare.
	cfg.SmallClusterRatio = 0.15
	cfg.ShortSessionRatio = 0.1
	if opt.Scale == ScaleQuick {
		cfg.MinPts = 2
		cfg.Eps = 0.75
	}
	return cfg
}

// Ensure baselines import is used even if scales change.
var _ = baselines.MaxKey
