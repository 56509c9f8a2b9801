package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: which
// end-to-end metrics exist, which direction is better, and the bound by
// which each may worsen before it counts as a regression.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSets(path string) ([]runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f setFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no run sets", path)
	}
	return f.Sets, nil
}

// pool merges run sets into one side of a comparison.
func pool(sets []runSet) *runSet {
	out := &runSet{}
	for _, s := range sets {
		out.Runs = append(out.Runs, s.Runs...)
	}
	return out
}

// compareMain implements `ucadbench compare <a.json> [<b.json>]`: a delta
// table of every end-to-end metric on every workload, b against a. With
// one file holding two run sets (bench/baseline.json) it compares the
// second set against the first. It exits non-zero only when some metric
// got worse by more than its bound; a pairing whose own run-to-run spread
// exceeds the bound is "unresolved", which is neither a pass nor a fail.
func compareMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: ucadbench compare <a.json> [<b.json>]")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	setsA, err := loadSets(args[0])
	if err != nil {
		fatal(err)
	}
	var a, b *runSet
	if len(args) == 2 {
		setsB, err := loadSets(args[1])
		if err != nil {
			fatal(err)
		}
		a, b = pool(setsA), pool(setsB)
	} else {
		if len(setsA) < 2 {
			fatal(fmt.Errorf("%s holds one run set; give a second file to compare against", args[0]))
		}
		a, b = &setsA[0], &setsA[1]
	}
	rows, regressed := compareSets(bf, a, b)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tworse by\tbound\tspread a\tspread b\tverdict\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
			r.workload, r.metric, r.medA, r.medB, 100*r.worseBy, 100*r.bound, 100*r.spreadA, 100*r.spreadB, r.verdict)
	}
	tw.Flush()
	for _, side := range []*runSet{a, b} {
		for _, run := range side.Runs {
			if !run.Correct {
				fmt.Printf("incorrect run: %s seed %d (%d of %d failed)\n", run.Workload, run.Seed, run.Failed, run.Attempted)
				regressed = true
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

type compareRow struct {
	workload, metric string
	medA, medB       float64
	worseBy, bound   float64
	spreadA, spreadB float64
	verdict          string
}

func compareSets(bf benchmarkFile, a, b *runSet) (rows []compareRow, regressed bool) {
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				rows = append(rows, compareRow{workload: wl.Name, metric: m.Name, bound: m.Bound, verdict: "missing"})
				regressed = true
				continue
			}
			row := compareRow{workload: wl.Name, metric: m.Name, medA: median(va), medB: median(vb),
				bound: m.Bound, spreadA: spreadShare(va), spreadB: spreadShare(vb)}
			if row.medA != 0 {
				row.worseBy = (row.medB - row.medA) / row.medA
				if m.Better == "higher" {
					row.worseBy = -row.worseBy
				}
			}
			switch {
			case row.spreadA > m.Bound || row.spreadB > m.Bound:
				row.verdict = "unresolved"
			case row.worseBy > m.Bound:
				row.verdict = "REGRESSED"
				regressed = true
			case row.worseBy < -m.Bound:
				row.verdict = "better"
			default:
				row.verdict = "level"
			}
			rows = append(rows, row)
		}
	}
	return rows, regressed
}
