package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// runSet is a batch of untraced runs of one build: several seeds per
// workload, with the median and quartiles of every end-to-end metric.
// bench/baseline.json holds two of them, measured back to back on the
// seed commit.
type runSet struct {
	Label     string                        `json:"label,omitempty"`
	Seconds   float64                       `json:"seconds"`
	Runs      []setRun                      `json:"runs"`
	Summaries map[string]map[string]summary `json:"summaries"` // workload -> metric -> summary
}

type setRun struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
}

type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median: the run-to-run spread the bounds in
	// BENCHMARK.json must stay above.
	Spread float64 `json:"spread"`
}

// setFile is what -out writes and compare reads: one or more run sets.
type setFile struct {
	Sets []runSet `json:"sets"`
}

// allMain runs every workload runs times, each run in a process of its
// own (exactly what the tracking driver does, so heap and scheduler state
// never leak from one run into the next), and prints the run set.
func allMain(cfg runConfig, runs int, outFile string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	set := runSet{Seconds: cfg.seconds}
	units := make(map[string]string)
	ok := true
	for i := 0; i < runs; i++ {
		for _, sp := range specs {
			args := []string{
				"-workload", sp.name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0", "-outdir", cfg.outDir,
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run() // Run waits for the child: nothing is left behind
			line := lastLine(stdout.Bytes())
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &res); err != nil {
				fmt.Fprintf(os.Stderr, "ucadbench: %s seed %d: no result (%v)\n", sp.name, cfg.seed+int64(i), runErr)
				ok = false
				continue
			}
			sr := setRun{Workload: sp.name, Seed: cfg.seed + int64(i), Correct: res.Correct,
				Attempted: res.Attempted, Failed: res.Failed, Values: make(map[string]float64)}
			for name, m := range res.Metrics {
				sr.Values[name] = m.Value
				units[name] = m.Unit
			}
			set.Runs = append(set.Runs, sr)
			ok = ok && res.Correct
		}
	}
	set.summarize(units)
	out := setFile{Sets: []runSet{set}}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if outFile != "" {
		if err := os.WriteFile(outFile, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	set.print(os.Stderr)
	fmt.Println(string(b))
	if !ok {
		return 1
	}
	return 0
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func (s *runSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if x, ok := r.Values[metric]; ok {
				v = append(v, x)
			}
		}
	}
	return v
}

func (s *runSet) summarize(units map[string]string) {
	s.Summaries = make(map[string]map[string]summary)
	for _, r := range s.Runs {
		if s.Summaries[r.Workload] == nil {
			s.Summaries[r.Workload] = make(map[string]summary)
		}
		for name := range r.Values {
			if _, done := s.Summaries[r.Workload][name]; done {
				continue
			}
			v := s.values(r.Workload, name)
			q1, med, q3 := quartiles(v)
			s.Summaries[r.Workload][name] = summary{Unit: units[name], N: len(v), Q1: q1, Median: med, Q3: q3, Spread: spreadShare(v)}
		}
	}
}

func (s *runSet) print(w *os.File) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\tq1\tmedian\tq3\tspread\t")
	for _, wl := range sortedKeys(s.Summaries) {
		for _, name := range sortedKeys(s.Summaries[wl]) {
			sm := s.Summaries[wl][name]
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.1f%%\t\n", wl, name, sm.N, sm.Q1, sm.Median, sm.Q3, 100*sm.Spread)
		}
	}
	tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
