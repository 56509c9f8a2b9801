package main

import "testing"

func setOf(workload, metric string, values ...float64) *runSet {
	s := &runSet{}
	for i, v := range values {
		s.Runs = append(s.Runs, setRun{Workload: workload, Seed: int64(i), Correct: true, Values: map[string]float64{metric: v}})
	}
	return s
}

func TestCompareVerdicts(t *testing.T) {
	var bf benchmarkFile
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	add := func(name, better string, bound float64) {
		bf.EndToEnd = append(bf.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{name, "us", better, bound})
	}
	add("lat", "lower", 0.10)
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		a, b      []float64
		verdict   string
		regressed bool
	}{
		{"same", tight, tight, "level", false},
		{"within bound", tight, scale(tight, 1.08), "level", false},
		{"beyond bound", tight, scale(tight, 1.2), "REGRESSED", true},
		{"improved", tight, scale(tight, 0.8), "better", false},
		{"noisy side", tight, []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 120}, "unresolved", false},
	} {
		rows, regressed := compareSets(bf, setOf("w", "lat", tc.a...), setOf("w", "lat", tc.b...))
		if len(rows) != 1 || rows[0].verdict != tc.verdict || regressed != tc.regressed {
			t.Errorf("%s: verdict %q regressed=%v, want %q %v", tc.name, rows[0].verdict, regressed, tc.verdict, tc.regressed)
		}
	}
	// Higher-is-better metrics regress downwards.
	bf.EndToEnd = bf.EndToEnd[:0]
	add("cap", "higher", 0.10)
	rows, regressed := compareSets(bf, setOf("w", "cap", tight...), setOf("w", "cap", scale(tight, 0.8)...))
	if rows[0].verdict != "REGRESSED" || !regressed {
		t.Errorf("capacity down 20%%: verdict %q, want REGRESSED", rows[0].verdict)
	}
	// A metric one side never measured cannot be waved through.
	rows, regressed = compareSets(bf, setOf("w", "cap", tight...), setOf("w", "other", tight...))
	if rows[0].verdict != "missing" || !regressed {
		t.Errorf("missing metric: verdict %q regressed=%v, want missing true", rows[0].verdict, regressed)
	}
}
