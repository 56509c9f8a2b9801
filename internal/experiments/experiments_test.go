package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"github.com/ucad/ucad/internal/metrics"
)

// skipSweep gates the two pure sensitivity sweeps: the full package
// fits go test's default 10m budget only when t.Parallel can spread
// the model training across cores. On a single-core box the sweeps
// alone push the serial wall clock past the budget, so they defer to
// cmd/ucad-experiments (which has no timeout) instead of failing the
// whole package by timeout.
func skipSweep(t *testing.T, why string) {
	t.Helper()
	if testing.Short() {
		t.Skip(why)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip(why + " (single core: no parallel headroom inside the test timeout)")
	}
	t.Parallel()
}

func quickOpt() Options { return Options{Scale: ScaleQuick, Seed: 1} }

// pinnedQuick holds the quick-scale (seed 1) F1 / precision / recall of
// every row Trans-DAS produces in Tables 2 and 3, recorded at PR 20's
// commit. Training is bit-reproducible per (seed, BatchSize,
// TrainWorkers) and the quick configs leave both at 1, so on amd64 (the
// architecture they were recorded on; others may fuse multiply-adds)
// equality is exact: a refactor that moves any of these moved the model.
var pinnedQuick = map[string][3]float64{
	"Scenario-I/UCAD":                    {0.9365079365079364, 0.8939393939393939, 0.9833333333333333},
	"Scenario-II/UCAD":                   {0.8990825688073394, 0.8909090909090909, 0.9074074074074074},
	"Scenario-I/Base Transformer":        {0.7065868263473052, 0.5514018691588785, 0.9833333333333333},
	"Scenario-I/Our embedding layer":     {0.7763157894736841, 0.6413043478260869, 0.9833333333333333},
	"Scenario-I/Our masking mechanism":   {0.7065868263473052, 0.5514018691588785, 0.9833333333333333},
	"Scenario-I/Our training objective":  {0.944, 0.9076923076923077, 0.9833333333333333},
	"Scenario-I/Trans-DAS":               {0.9365079365079364, 0.8939393939393939, 0.9833333333333333},
	"Scenario-II/Base Transformer":       {0.6923076923076924, 0.5294117647058824, 1},
	"Scenario-II/Our embedding layer":    {0.8, 0.6666666666666666, 1},
	"Scenario-II/Our masking mechanism":  {0.6923076923076924, 0.5294117647058824, 1},
	"Scenario-II/Our training objective": {0.8888888888888888, 0.8888888888888888, 0.8888888888888888},
	"Scenario-II/Trans-DAS":              {0.8990825688073394, 0.8909090909090909, 0.9074074074074074},
}

// checkPinned compares one evaluated row with pinnedQuick (amd64 only).
func checkPinned(t *testing.T, scenario string, row metrics.Evaluation) {
	t.Helper()
	want, ok := pinnedQuick[scenario+"/"+row.Method]
	if !ok || runtime.GOARCH != "amd64" {
		return
	}
	if got := [3]float64{row.F1, row.Precision, row.Recall}; got != want {
		t.Errorf("%s %s: F1/precision/recall = %v, pinned %v", scenario, row.Method, got, want)
	}
}

func TestTable1Shapes(t *testing.T) {
	var buf bytes.Buffer
	res := Table1(quickOpt(), &buf)
	if len(res) != 2 {
		t.Fatalf("scenarios = %d", len(res))
	}
	if res[0].Stats.Keys != 20 {
		t.Fatalf("Scenario-I keys = %d, want 20", res[0].Stats.Keys)
	}
	if res[1].Stats.Keys <= res[0].Stats.Keys {
		t.Fatal("Scenario-II must have a much richer key space")
	}
	for _, r := range res {
		for _, set := range []string{"V1", "V2", "V3", "A1", "A2", "A3"} {
			if r.Testing[set] == 0 {
				t.Fatalf("%s missing test set %s", r.Scenario, set)
			}
		}
		if r.Testing["A1"] != r.Testing["V1"] {
			t.Fatal("abnormal sets must match V1's size (§6.1)")
		}
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("missing printed table")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	t.Parallel()
	res := Table2(quickOpt(), nil)
	if len(res) != 2 {
		t.Fatalf("scenarios = %d", len(res))
	}
	for _, sc := range res {
		if len(sc.Rows) != 6 {
			t.Fatalf("%s methods = %d, want 6", sc.Scenario, len(sc.Rows))
		}
		var ucadF1, bestF1, ucadA2 float64
		bestOther := ""
		for _, row := range sc.Rows {
			checkPinned(t, sc.Scenario, row)
			if row.Method == "UCAD" {
				ucadF1 = row.F1
				ucadA2 = row.FNR["A2"]
				continue
			}
			if row.F1 > bestF1 {
				bestF1, bestOther = row.F1, row.Method
			}
		}
		// Shape: UCAD is competitive with the best baseline (winning at
		// paper scale; quick scale allows small seed noise) and detects
		// the stealthy A2 anomalies.
		if ucadF1 < 0.72 {
			t.Errorf("%s: UCAD F1 = %.3f too low", sc.Scenario, ucadF1)
		}
		if ucadF1 < bestF1-0.08 {
			t.Errorf("%s: UCAD F1 %.3f far behind %s (%.3f)", sc.Scenario, ucadF1, bestOther, bestF1)
		}
		if ucadA2 > 0.25 {
			t.Errorf("%s: UCAD FNR(A2) = %.3f; stealthy anomalies must be caught", sc.Scenario, ucadA2)
		}
		// Shape: non-sequence baselines miss stealthy A2 anomalies far
		// more often than UCAD (the paper's central claim).
		for _, row := range sc.Rows {
			switch row.Method {
			case "iForest", "Mazzawi":
				if row.FNR["A2"] < ucadA2 {
					t.Errorf("%s: %s FNR(A2)=%.3f beats UCAD %.3f — point methods should miss stealthy anomalies",
						sc.Scenario, row.Method, row.FNR["A2"], ucadA2)
				}
			}
		}
	}
}

func TestTableAttacksShape(t *testing.T) {
	if testing.Short() {
		t.Skip("attack-taxonomy evaluation is slow")
	}
	t.Parallel()
	rows := TableAttacks(quickOpt(), nil)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 (2 scenarios x A1-A6)", len(rows))
	}
	byFam := map[string]map[string]AttackRow{}
	for _, r := range rows {
		if r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			t.Fatalf("%s/%s out of range: %+v", r.Scenario, r.Family, r)
		}
		if r.Sessions == 0 {
			t.Fatalf("%s/%s has no sessions", r.Scenario, r.Family)
		}
		if byFam[r.Scenario] == nil {
			byFam[r.Scenario] = map[string]AttackRow{}
		}
		byFam[r.Scenario][r.Family] = r
	}
	for sc, fams := range byFam {
		for _, f := range []string{"A1", "A2", "A3", "A4", "A5", "A6"} {
			if _, ok := fams[f]; !ok {
				t.Fatalf("%s missing family %s", sc, f)
			}
		}
		// Shape: volume anomalies (A1 privilege abuse, A6 mass-delete
		// bursts) are caught reliably; the pure-ordering A5 attacks are
		// the hardest family — its recall must not beat the burst
		// families'.
		if r := fams["A1"].Recall; r < 0.7 {
			t.Errorf("%s: A1 recall %.3f too low", sc, r)
		}
		if r := fams["A6"].Recall; r < 0.7 {
			t.Errorf("%s: A6 recall %.3f too low", sc, r)
		}
		if fams["A5"].Recall > fams["A6"].Recall {
			t.Errorf("%s: A5 (pure ordering) recall %.3f beats A6 %.3f — unexpected ordering sensitivity",
				sc, fams["A5"].Recall, fams["A6"].Recall)
		}
	}
}

func TestTable3AblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	t.Parallel()
	res := Table3(quickOpt(), nil)
	for _, sc := range res {
		if len(sc.Rows) != len(ablationOrder) {
			t.Fatalf("%s rows = %d", sc.Scenario, len(sc.Rows))
		}
		for _, row := range sc.Rows {
			checkPinned(t, sc.Scenario, row)
		}
		base := sc.Rows[0]
		full := sc.Rows[len(sc.Rows)-1]
		if base.Method != "Base Transformer" || full.Method != "Trans-DAS" {
			t.Fatalf("row order wrong: %s .. %s", base.Method, full.Method)
		}
		if full.F1 < base.F1-0.05 {
			t.Errorf("%s: full model F1 %.3f below base %.3f", sc.Scenario, full.F1, base.F1)
		}
	}
}

func TestTables4And5TimeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	for _, tc := range []struct {
		name string
		run  func(Options, *bytes.Buffer) []SweepPoint
	}{
		{"table4", func(o Options, b *bytes.Buffer) []SweepPoint { return Table4(o, b) }},
		{"table5", func(o Options, b *bytes.Buffer) []SweepPoint { return Table5(o, b) }},
	} {
		var buf bytes.Buffer
		pts := tc.run(quickOpt(), &buf)
		if len(pts) < 2 {
			t.Fatalf("%s: %d points", tc.name, len(pts))
		}
		// Shape: training time grows with the parameter.
		if pts[len(pts)-1].EpochTime <= pts[0].EpochTime {
			t.Errorf("%s: time/epoch did not grow: %v -> %v",
				tc.name, pts[0].EpochTime, pts[len(pts)-1].EpochTime)
		}
		for _, p := range pts {
			if p.F1 <= 0.3 {
				t.Errorf("%s: F1 at %d collapsed to %.3f", tc.name, p.Value, p.F1)
			}
		}
	}
}

func TestTable6TransferShape(t *testing.T) {
	if testing.Short() {
		t.Skip("transfer sweep is slow")
	}
	t.Parallel()
	res := Table6(quickOpt(), nil)
	if len(res) != 3 {
		t.Fatalf("datasets = %d", len(res))
	}
	for _, ds := range res {
		if len(ds.Rows) != 3 {
			t.Fatalf("%s methods = %d", ds.Dataset, len(ds.Rows))
		}
		var ucad, logCluster, deeplog float64
		for _, row := range ds.Rows {
			switch row.Method {
			case "UCAD":
				ucad = row.Recall
			case "LogCluster":
				logCluster = row.Recall
			case "DeepLog":
				deeplog = row.Recall
			}
		}
		// Shape: UCAD's recall is the highest (or tied) on every log
		// dataset (§6.6), and clearly above LogCluster's.
		if ucad < deeplog-0.05 || ucad < logCluster {
			t.Errorf("%s: recall UCAD=%.3f DeepLog=%.3f LogCluster=%.3f",
				ds.Dataset, ucad, deeplog, logCluster)
		}
	}
}

func TestFigure6AttentionStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	t.Parallel()
	var buf bytes.Buffer
	res := Figure6(quickOpt(), &buf)
	if res.Weights == nil || res.Weights.Rows != len(res.Keys) {
		t.Fatal("missing attention weights")
	}
	for i := 0; i < res.Weights.Rows; i++ {
		var sum float64
		for j := 0; j < res.Weights.Cols; j++ {
			sum += res.Weights.At(i, j)
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("attention row %d sums to %v", i, sum)
		}
	}
	if len(res.Templates) != len(res.Keys) {
		t.Fatal("template listing incomplete")
	}
	if !strings.Contains(buf.String(), "Statement template") {
		t.Fatal("missing template table in output")
	}
}

func TestFigure7Sensitivity(t *testing.T) {
	skipSweep(t, "sweeps are slow")
	res := Figure7(quickOpt(), nil)
	if len(res) != 2 {
		t.Fatalf("scenarios = %d", len(res))
	}
	for _, sc := range res {
		if len(sc.P) < 3 || len(sc.L) < 2 || len(sc.G) < 3 || len(sc.H) < 2 {
			t.Fatalf("%s curves incomplete: %d %d %d %d", sc.Scenario, len(sc.P), len(sc.L), len(sc.G), len(sc.H))
		}
		// Shape: tiny p over-flags (lower F1 than the best p).
		bestP, firstP := 0.0, sc.P[0].F1
		for _, pt := range sc.P {
			if pt.F1 > bestP {
				bestP = pt.F1
			}
		}
		if firstP > bestP-0.01 {
			t.Logf("%s: p=1 already near-optimal (%.3f vs %.3f)", sc.Scenario, firstP, bestP)
		}
		// Shape: the margin g barely matters.
		minG, maxG := 1.0, 0.0
		for _, pt := range sc.G {
			if pt.F1 < minG {
				minG = pt.F1
			}
			if pt.F1 > maxG {
				maxG = pt.F1
			}
		}
		if maxG-minG > 0.25 {
			t.Errorf("%s: F1 varies %.3f across g — paper reports insensitivity", sc.Scenario, maxG-minG)
		}
	}
}

func TestFigure8Robustness(t *testing.T) {
	skipSweep(t, "contamination sweep is slow")
	res := Figure8(quickOpt(), nil)
	if len(res) != 2 {
		t.Fatalf("scenarios = %d", len(res))
	}
	for _, sc := range res {
		var ucad *Figure8Row
		for i := range sc.Rows {
			if sc.Rows[i].Method == "UCAD" {
				ucad = &sc.Rows[i]
			}
		}
		if ucad == nil || len(ucad.F1) != len(sc.Ratios) {
			t.Fatalf("%s: missing UCAD curve", sc.Scenario)
		}
		clean0 := ucad.F1[0].F1
		dirty20 := ucad.F1[len(ucad.F1)-1].F1
		// Shape: graceful decline — 20% contamination costs well under
		// half the clean F1 (the paper reports ~0.08-0.13 absolute).
		if dirty20 < clean0-0.35 {
			t.Errorf("%s: F1 fell %.3f -> %.3f under contamination", sc.Scenario, clean0, dirty20)
		}
	}
}
