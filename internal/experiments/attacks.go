package experiments

import (
	"fmt"
	"io"
	"sort"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/session"
)

// extendAttackSets appends the extended taxonomy (A4 low-and-slow
// exfiltration, A5 privilege-escalation orderings, A6 mass-delete
// bursts) to a prepared scenario, tokenized with the already-learned
// vocabulary — detection-stage semantics, same as every other test set.
func extendAttackSets(d *ScenarioData) {
	d.Gen.ExtendAttacks(d.Suite)
	for _, fam := range []string{"A4", "A5", "A6"} {
		d.Abnormal[fam] = session.KeysIn(d.Vocab, d.Suite.Abnormal[fam]...)
	}
}

// AttackRow is one (scenario, family) cell of the per-family
// precision/recall table.
type AttackRow struct {
	Scenario  string
	Family    string
	Sessions  int
	Precision float64
	Recall    float64
	F1        float64
}

// TableAttacks evaluates UCAD per attack family across the full A1–A6
// taxonomy. Recall is per family (1 − FNR on that family's set);
// precision charges each family the detector's full false-alarm count
// on the normal sets V1–V3 — the operator's view, where every alert
// from the shared stream competes with the same false positives.
func TableAttacks(opt Options, w io.Writer) []AttackRow {
	var out []AttackRow
	for _, data := range Scenarios(opt) {
		extendAttackSets(data)
		ev := evaluate(core.NewDetector(data.Cfg), data)
		fp := ev.Confusion.FP

		var fams []string
		for fam := range data.Abnormal {
			fams = append(fams, fam)
		}
		sort.Strings(fams)

		var rows []AttackRow
		for _, fam := range fams {
			n := len(data.Abnormal[fam])
			recall := 1 - ev.FNR[fam]
			tp := int(recall*float64(n) + 0.5)
			prec := 0.0
			if tp+fp > 0 {
				prec = float64(tp) / float64(tp+fp)
			}
			f1 := 0.0
			if prec+recall > 0 {
				f1 = 2 * prec * recall / (prec + recall)
			}
			rows = append(rows, AttackRow{
				Scenario: data.Name, Family: fam, Sessions: n,
				Precision: prec, Recall: recall, F1: f1,
			})
		}
		out = append(out, rows...)

		if w != nil {
			fmt.Fprintf(w, "Attack taxonomy A1-A6: UCAD per-family detection (%s, scale=%s, FP on V1-V3 = %d)\n",
				data.Name, opt.Scale, fp)
			fmt.Fprintf(w, "%-8s %10s %10s %10s %10s\n", "Family", "Sessions", "P", "R", "F1")
			for _, r := range rows {
				fmt.Fprintf(w, "%-8s %10d %10.5f %10.5f %10.5f\n",
					r.Family, r.Sessions, r.Precision, r.Recall, r.F1)
			}
			fmt.Fprintln(w)
		}
	}
	return out
}
