// Command ucadbench is the repository's tracked benchmark: four
// workloads that stress different layers of the serving system, each run
// as an open-loop steady phase and a closed-loop saturate phase, with the
// outputs checked against a single-threaded reference run and every
// layer measured from outside through its public functions and exported
// counters. See bench/README.md.
//
// Usage (through bench/run.sh, which builds it):
//
//	ucadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	ucadbench -all [-runs n] [-out set.json]
//	ucadbench compare <a.json> [<b.json>]
//	ucadbench keepawake n (internal: the helper a run starts, see keepawake.go)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "keepawake" {
		os.Exit(keepAwakeMain(os.Args[2:]))
	}
	var cfg runConfig
	var trace int
	var all bool
	var runs int
	var outFile string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "seconds measured per run (steady + saturate)")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced passes, per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny models and sizes (a sub-10s check that everything still runs)")
	flag.BoolVar(&cfg.profile, "profile", false, "write CPU and alloc pprof of the saturate phase to the out dir")
	flag.StringVar(&cfg.outDir, "outdir", filepath.Join("bench", "out"), "directory for traces, profiles, per-run JSON and scratch data")
	flag.StringVar(&cfg.inject, "inject", "", "self-test fault (drop, dup, flip): the run must come out incorrect")
	flag.BoolVar(&all, "all", false, "run every workload (each in its own process) and print a run set")
	flag.IntVar(&runs, "runs", 1, "with -all: runs per workload, seeds seed..seed+runs-1")
	flag.StringVar(&outFile, "out", "", "with -all: write the run set here as well")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := requireCheckout(); err != nil {
		fatal(err)
	}
	// The generator's callers stand for separate client processes with
	// threads of their own; inside one Go process that means Ps of their
	// own, or a caller waking from its sleep queues behind the scoring
	// workers for up to a scheduler slice (10 ms).
	runtime.GOMAXPROCS(sutProcs + nCallers)
	cfg.trace = trace != 0
	cfg.setups = 3
	if cfg.smoke {
		cfg.setups = 1
		if !flagSet("seconds") {
			cfg.seconds = smokeSeconds
		}
	}
	if all {
		os.Exit(allMain(cfg, runs, outFile)) // every run is a child with a helper of its own
	}
	if sp, ok := specByName(cfg.workload); ok {
		// From before set-up to the end, so set-up runs at the same speed too.
		helper = startKeepAwake(sp.awakeCPUs())
	}
	rp, err := execute(cfg)
	if err != nil {
		fatal(err)
	}
	helper.stop()
	if err := rp.write(cfg.outDir); err != nil {
		fatal(err)
	}
	rp.printTable(os.Stderr)
	fmt.Println(rp.line())
	if !rp.Correct {
		os.Exit(1)
	}
}

const (
	defaultSeconds = 28
	smokeSeconds   = 1.2
)

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// requireCheckout refuses to run anywhere but the root of a checkout of
// the repository: the benchmark measures that program, built from that
// source, and keeps its scratch files under bench/out there.
func requireCheckout() error {
	for _, p := range []string{"go.mod", "internal", filepath.Join("bench", "ucadbench")} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the root of a checkout of the repository: %w", err)
		}
	}
	return nil
}

func fatal(err error) {
	helper.stop()
	fmt.Fprintln(os.Stderr, "ucadbench:", err)
	os.Exit(2)
}

// line is the contract form of a report: one JSON object with exactly
// the keys correct, attempted, failed and metrics.
func (rp *report) line() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rp.Correct, rp.Attempted, rp.Failed, make(map[string]mv, len(rp.Metrics))}
	for k, m := range rp.Metrics {
		out.Metrics[k] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err) // a NaN or Inf metric: a bug in the benchmark
	}
	return string(b)
}

// write stores the detailed report as <outdir>/<workload>[.trace].json.
func (rp *report) write(dir string) error {
	name := rp.Workload + ".json"
	if rp.Trace {
		name = rp.Workload + ".layers.json"
	}
	b, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func (rp *report) printTable(w *os.File) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v: correct=%v attempted=%d failed=%d %v\n",
		rp.Workload, rp.Seed, rp.Seconds, rp.Trace, rp.Correct, rp.Attempted, rp.Failed, rp.Failures)
	if rp.Invalid != "" {
		fmt.Fprintln(w, "INVALID:", rp.Invalid)
	}
	for _, name := range sortedKeys(rp.Metrics) {
		m := rp.Metrics[name]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  (n=%d)", m.N)
		}
		if m.Unsupported {
			extra += "  [fewer than 10 samples beyond]"
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s%s\n", name, m.Value, m.Unit, extra)
	}
	for _, name := range sortedKeys(rp.Tails) {
		m := rp.Tails[name]
		note := ""
		if m.Unsupported {
			note = "  [fewer than 10 samples beyond]"
		}
		fmt.Fprintf(w, "  (unbounded) %-28s %14.4f %-6s  (n=%d)%s\n", name, m.Value, m.Unit, m.N, note)
	}
	if len(rp.Budget) > 0 {
		printBudget(w, rp.Budget)
	}
}
