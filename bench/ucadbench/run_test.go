package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 3, seconds: smokeSeconds, trace: trace, smoke: true,
		setups: 1, outDir: t.TempDir(), closeRegistry: true}
}

// TestSmokeEmitsExactlyTheDeclaredNames runs every workload at smoke size,
// untraced and traced, and holds the emitted JSON to BENCHMARK.json: the
// same workload names, exactly the declared metric names, each with its
// declared unit, every name well-formed.
func TestSmokeEmitsExactlyTheDeclaredNames(t *testing.T) {
	d := loadDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var want []string
	for _, w := range d.Workloads {
		want = append(want, w.Name)
	}
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, want)
	}
	e2e, layers := make(map[string]string), make(map[string]string)
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range want {
		for _, trace := range []bool{false, true} {
			rp, err := execute(smokeConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rp.Correct || rp.Failed != 0 || rp.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d %v", w, trace, rp.Correct, rp.Failed, rp.Attempted, rp.Failures)
			}
			declaredUnits := e2e
			if trace {
				declaredUnits = layers
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(rp.line()), &line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s trace=%v: result line lacks a contract key: %s", w, trace, rp.line())
			}
			var got, missing []string
			for name, m := range line.Metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", w, name)
				}
				unit, ok := declaredUnits[name]
				if !ok {
					t.Errorf("%s trace=%v: emits undeclared metric %q", w, trace, name)
				} else if unit != m.Unit || m.Unit == "" {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, name, m.Unit, unit)
				}
				if m.Value == nil {
					t.Errorf("%s: %s has no value", w, name)
				}
			}
			for name := range declaredUnits {
				if _, ok := line.Metrics[name]; !ok {
					missing = append(missing, name)
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Errorf("%s trace=%v: declared but not emitted: %v (emitted %d)", w, trace, missing, len(got))
			}
			if !trace {
				for name, m := range line.Metrics {
					if *m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, name)
					}
				}
			}
		}
	}
}

// TestCorrectnessCheckBites corrupts one thing at a time — a dropped
// event, a duplicated event, a flipped reference verdict — and expects the
// run to come out incorrect with a higher failed count than the clean run.
func TestCorrectnessCheckBites(t *testing.T) {
	clean, err := execute(smokeConfig(t, "inproc-hot", false))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Correct || clean.Failed != 0 {
		t.Fatalf("clean run: correct=%v failed=%d %v", clean.Correct, clean.Failed, clean.Failures)
	}
	for _, fault := range []string{"drop", "dup", "flip"} {
		cfg := smokeConfig(t, "inproc-hot", false)
		cfg.inject = fault
		rp, err := execute(cfg)
		if err != nil {
			t.Fatalf("inject %s: %v", fault, err)
		}
		if rp.Correct || rp.Failed <= clean.Failed {
			t.Errorf("inject %s: correct=%v failed=%d %v; the check did not bite", fault, rp.Correct, rp.Failed, rp.Failures)
		}
	}
}

// TestIncorrectRunExitsNonZero drives the built command itself: an
// injected fault must surface as a non-zero exit, a clean smoke run as 0
// with the result on the last line of stdout.
func TestIncorrectRunExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "ucadbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	run := func(extra ...string) (string, error) {
		args := append([]string{"-workload", "inproc-hot", "-seed", "5", "-smoke", "-trace", "0", "-outdir", t.TempDir()}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return string(lastLine(out)), err
	}
	line, err := run()
	if err != nil || !strings.Contains(line, `"correct":true`) {
		t.Fatalf("clean run: err=%v last line %q", err, line)
	}
	if line, err := run("-inject", "drop"); err == nil || !strings.Contains(line, `"correct":false`) {
		t.Errorf("faulty run: err=%v last line %q; want a non-zero exit and correct=false", err, line)
	}
	// Outside a checkout there is nothing to benchmark: no result, non-zero.
	cmd := exec.Command(bin, "-workload", "inproc-hot", "-smoke")
	cmd.Dir = t.TempDir()
	if out, err := cmd.Output(); err == nil || len(out) != 0 {
		t.Errorf("outside a checkout: err=%v stdout %q; want a non-zero exit and no result", err, out)
	}
}

func TestProfileFlagWritesSaturateProfiles(t *testing.T) {
	cfg := smokeConfig(t, "inproc-hot", false)
	cfg.profile = true
	if _, err := execute(cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"inproc-hot.cpu.pprof", "inproc-hot.alloc.pprof"} {
		if st, err := os.Stat(filepath.Join(cfg.outDir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v (want a non-empty profile)", name, err)
		}
	}
}
