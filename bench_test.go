package ucad

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) at ScaleQuick, plus micro-benchmarks of the training
// and preprocessing hot paths (Trans-DAS training windows, one Fit of
// each learned baseline, DBSCAN). Serving-side cost — scoring, tokenization, ingest,
// the feed front door — is measured by bench/ucadbench (bench/README.md),
// not here. Run `go test -bench=. -benchmem` for the full sweep or
// `cmd/ucad-experiments -all -scale demo` for the larger printed runs.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/ucad/ucad/internal/baselines"
	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/experiments"
	"github.com/ucad/ucad/internal/metrics"
	"github.com/ucad/ucad/internal/preprocess"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Scale: experiments.ScaleQuick, Seed: 1}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(benchOpts(), nil)
	}
}

func BenchmarkTable2MainComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(benchOpts(), nil)
		if len(res) != 2 {
			b.Fatal("missing scenario results")
		}
	}
}

func BenchmarkTable3Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(benchOpts(), nil)
		if len(res) != 2 {
			b.Fatal("missing scenario results")
		}
	}
}

func BenchmarkTable4HiddenDimSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Table4(benchOpts(), nil)
		if len(pts) < 2 {
			b.Fatal("sweep incomplete")
		}
	}
}

func BenchmarkTable5WindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Table5(benchOpts(), nil)
		if len(pts) < 2 {
			b.Fatal("sweep incomplete")
		}
	}
}

func BenchmarkTable6Transfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table6(benchOpts(), nil)
		if len(res) != 3 {
			b.Fatal("missing datasets")
		}
	}
}

func BenchmarkFigure6Attention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure6(benchOpts(), nil)
		if res.Weights == nil {
			b.Fatal("missing weights")
		}
	}
}

func BenchmarkFigure7Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure7(benchOpts(), nil)
		if len(res) != 2 {
			b.Fatal("missing scenarios")
		}
	}
}

func BenchmarkFigure8Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure8(benchOpts(), nil)
		if len(res) != 2 {
			b.Fatal("missing scenarios")
		}
	}
}

// --- Ablation benches for DESIGN.md's design decisions ------------------

// BenchmarkAblationBlockDepth measures detection quality versus stack
// depth B — the over-smoothing effect documented in EXPERIMENTS.md.
func BenchmarkAblationBlockDepth(b *testing.B) {
	for _, blocks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("B=%d", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data := experiments.PrepareScenarioI(benchOpts())
				data.Cfg.Blocks = blocks
				d := core.NewDetector(data.Cfg)
				d.Fit(data.Train)
			}
		})
	}
}

// BenchmarkAblationStride measures training cost versus the sliding
// window stride (stride 1 is the paper's scheme; larger strides trade
// final-position coverage for speed).
func BenchmarkAblationStride(b *testing.B) {
	for _, stride := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data := experiments.PrepareScenarioI(benchOpts())
				data.Cfg.Stride = stride
				data.Cfg.Epochs = 3
				d := core.NewDetector(data.Cfg)
				d.Fit(data.Train)
			}
		})
	}
}

// --- Micro-benchmarks of hot paths ---------------------------------------

// BenchmarkTrainingWindow measures Trans-DAS training at bench/ucadbench's
// two model shapes — small (h=16 m=2 L=8 stride 1, Scenario-I sessions)
// and paper (h=64 m=8 L=30 stride 12, Scenario-II sessions), B=2, two
// workers, batch 16 — in windows per second and heap allocations per
// window (each op is one epoch over 24 sessions, worker set-up
// included). It calls only transdas.New and Train, so the same file
// measures any revision: `make bench-train`.
func BenchmarkTrainingWindow(b *testing.B) {
	for _, tc := range []struct {
		name                          string
		spec                          workload.Spec
		hidden, heads, window, stride int
	}{
		{"small", workload.ScenarioI(), 16, 2, 8, 1},
		{"paper", workload.ScenarioII(0.5), 64, 8, 30, 12},
	} {
		b.Run(tc.name, func(b *testing.B) {
			v := sqlnorm.NewVocabulary()
			var sessions [][]int
			for _, s := range workload.NewGenerator(tc.spec, 1000).GenerateSessions(24) {
				for j := range s.Ops {
					s.Ops[j].Key = v.Learn(s.Ops[j].SQL)
				}
				sessions = append(sessions, s.Keys())
			}
			cfg := transdas.DefaultConfig(v.Size())
			cfg.Hidden, cfg.Heads, cfg.Blocks, cfg.Window = tc.hidden, tc.heads, 2, tc.window
			cfg.Stride, cfg.Epochs, cfg.Dropout = tc.stride, 1, 0
			cfg.TrainWorkers, cfg.BatchSize = 2, 16
			m := transdas.New(cfg)
			windows := m.Train(sessions, nil).Windows // warm-up epoch
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Train(sessions, nil)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(windows * b.N)
			b.ReportMetric(n/b.Elapsed().Seconds(), "windows/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/window")
		})
	}
}

// BenchmarkBaselineFit measures one Fit of each learned baseline at
// Table 2's quick settings (DeepLog 3 epochs of at most 1500 windows,
// USAD 6 epochs) on 300 seeded sessions over a 200-key vocabulary,
// 10–40 keys long. It calls only NewDeepLog, NewUSAD and Fit, so the
// same file measures any revision: `make bench-train`.
func BenchmarkBaselineFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sessions := make([][]int, 300)
	for i := range sessions {
		s := make([]int, 10+rng.Intn(31))
		for j := range s {
			s[j] = 1 + rng.Intn(199)
		}
		sessions[i] = s
	}
	for _, tc := range []struct {
		name string
		mk   func() metrics.Detector
	}{
		{"deeplog", func() metrics.Detector {
			d := baselines.NewDeepLog(1)
			d.Epochs, d.MaxWindows = 3, 1500
			return d
		}},
		{"usad", func() metrics.Detector {
			u := baselines.NewUSAD(1)
			u.Epochs = 6
			return u
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.mk().Fit(sessions)
			}
		})
	}
}

func BenchmarkDBSCANSessions(b *testing.B) {
	gen := workload.NewGenerator(workload.ScenarioI(), 3)
	sessions := gen.GenerateSessions(150)
	v := sqlnorm.NewVocabulary()
	profiles := make([]map[string]struct{}, len(sessions))
	for i, s := range sessions {
		for j := range s.Ops {
			s.Ops[j].Key = v.Learn(s.Ops[j].SQL)
		}
		profiles[i] = preprocess.NGramSet(s.Keys(), 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preprocess.DBSCAN(len(profiles), func(x, y int) float64 {
			return preprocess.JaccardDistance(profiles[x], profiles[y])
		}, 0.6, 3)
	}
}
