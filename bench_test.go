package ucad

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) at ScaleQuick, plus micro-benchmarks of the training
// and preprocessing hot paths (attention forward/backward, one training
// window, DBSCAN). Serving-side cost — scoring, tokenization, ingest,
// the feed front door — is measured by bench/ucadbench (bench/README.md),
// not here. Run `go test -bench=. -benchmem` for the full sweep or
// `cmd/ucad-experiments -all -scale demo` for the larger printed runs.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/experiments"
	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/preprocess"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/tensor"
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

func BenchmarkAttentionForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	att := nn.NewMultiHeadAttention("att", 64, 8, nn.MaskBidirectionalExceptSelf, rng)
	x := tensor.NewParam("x", tensor.NewRandN(100, 64, 1, rng))
	params := append(att.Params(), x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(params)
		tp := tensor.NewTape()
		out := att.ForwardBatch(tp, tp.Param(x), 1, nil)
		loss := tp.Sum(tp.Square(out))
		tp.Backward(loss)
	}
}

func BenchmarkTrainingWindow(b *testing.B) {
	cfg := transdas.DefaultConfig(100)
	cfg.Epochs = 1
	m := transdas.New(cfg)
	rng := rand.New(rand.NewSource(2))
	session := make([]int, 31)
	for i := range session {
		session[i] = 1 + rng.Intn(99)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Train([][]int{session}, nil)
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
