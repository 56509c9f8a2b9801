package transdas

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/nn"
)

// batchVariants covers the kernel-relevant configuration axes: the
// paper's default, every mask ablation, and the positional-embedding
// variant.
func batchVariants() map[string]Config {
	base := testConfig()
	full := testConfig()
	full.Mask = nn.MaskFull
	future := testConfig()
	future.Mask = nn.MaskFuture
	pos := testConfig()
	pos.Positional = true
	return map[string]Config{"default": base, "full-mask": full, "future-mask": future, "positional": pos}
}

// randomContext draws a context of the given length whose keys include
// the pad key 0 and out-of-vocabulary keys, exercising the zero-row
// embedding path.
func randomContext(rng *rand.Rand, vocab, length int) []int {
	ctx := make([]int, length)
	for i := range ctx {
		ctx[i] = rng.Intn(vocab+3) - 1 // [-1, vocab+1]
	}
	return ctx
}

// scoreNextFull is the reference batch-of-one score: the training
// step's full forward pass (train=false) over the context, every row of
// every block, read out at its last row. The property tests pin the
// Scorer kernel — ragged stacking, last-block compaction, its own
// attention accumulation order — to this path.
func (m *Model) scoreNextFull(preceding []int) []float64 {
	sims := make([]float64, m.cfg.Vocab)
	if len(preceding) == 0 {
		return sims
	}
	if len(preceding) > m.cfg.Window {
		preceding = preceding[len(preceding)-m.cfg.Window:]
	}
	out := m.newStep(nil).forward(preceding, false, nil)
	last := out.Row(out.Rows - 1)
	table := m.emb.Table.Value
	for k := 1; k < m.cfg.Vocab; k++ {
		row := table.Row(k)
		var dot float64
		for j, v := range last {
			dot += v * row[j]
		}
		sims[k] = 1 / (1 + math.Exp(-dot))
	}
	return sims
}

// TestScoreBatchMatchesSequential is the batched-vs-sequential
// equivalence property (the PR's acceptance criterion): one batch over
// N random variable-length contexts must equal N batch-of-one
// calls — and the training step's full forward pass — within 1e-9, including
// an empty context inside a batch, a context longer than Window, and a
// batch of one.
func TestScoreBatchMatchesSequential(t *testing.T) {
	for name, cfg := range batchVariants() {
		t.Run(name, func(t *testing.T) {
			m := New(cfg)
			s := m.NewScorer()
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 15; trial++ {
				var ctxs [][]int
				switch trial {
				case 0: // batch of one
					ctxs = [][]int{randomContext(rng, cfg.Vocab, 4)}
				case 1: // empty context inside a batch
					ctxs = [][]int{randomContext(rng, cfg.Vocab, 3), {}, randomContext(rng, cfg.Vocab, 7)}
				case 2: // context longer than Window
					ctxs = [][]int{randomContext(rng, cfg.Vocab, cfg.Window+9), randomContext(rng, cfg.Vocab, 1)}
				default:
					n := 1 + rng.Intn(8)
					ctxs = make([][]int, n)
					for i := range ctxs {
						ctxs[i] = randomContext(rng, cfg.Vocab, rng.Intn(cfg.Window+4))
					}
				}
				got := s.ScoreBatchInto(nil, ctxs)
				for b, ctx := range ctxs {
					seq := m.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]
					ref := m.scoreNextFull(ctx)
					for k := range seq {
						if d := math.Abs(got[b][k] - seq[k]); d > 1e-9 {
							t.Fatalf("trial %d ctx %d key %d: batched %g vs sequential %g (diff %g)",
								trial, b, k, got[b][k], seq[k], d)
						}
						if d := math.Abs(got[b][k] - ref[k]); d > 1e-9 {
							t.Fatalf("trial %d ctx %d key %d: batched %g vs full forward %g (diff %g)",
								trial, b, k, got[b][k], ref[k], d)
						}
					}
				}
			}
		})
	}
}

// TestScorerScratchReuse drives one Scorer through changing batch
// geometries (growing, shrinking, longer and shorter contexts) at both
// precisions and checks each result against a fresh Scorer: stale
// scratch contents must never leak into a later batch, and a geometry
// the Scorer has scored once costs no allocation the next time.
func TestScorerScratchReuse(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	warm := m.NewScorer()
	rng := rand.New(rand.NewSource(5))
	shapes := []struct{ n, l int }{{8, 3}, {2, 10}, {5, 1}, {1, 7}, {16, 10}, {3, 2}}
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		m.SetScorePrecision(prec)
		var dst [][]float64
		for _, sh := range shapes {
			ctxs := make([][]int, sh.n)
			for i := range ctxs {
				ctxs[i] = randomContext(rng, cfg.Vocab, sh.l)
			}
			dst = warm.ScoreBatchInto(dst, ctxs)
			want := m.NewScorer().ScoreBatchInto(nil, ctxs)
			for b := range ctxs {
				for k := range want[b] {
					if dst[b][k] != want[b][k] {
						t.Fatalf("%v shape %+v ctx %d key %d: warm %g vs fresh %g", prec, sh, b, k, dst[b][k], want[b][k])
					}
				}
			}
			if avg := testing.AllocsPerRun(10, func() { dst = warm.ScoreBatchInto(dst, ctxs) }); avg > 0 {
				t.Fatalf("%v shape %+v: warm ScoreBatchInto allocates %.1f times per call, want 0", prec, sh, avg)
			}
		}
	}
}

// TestRankBatchMatchesRankOf pins the batched rank surface to the
// single-item wrapper, including the worst-rank convention for PadKey
// and out-of-vocabulary keys and the rank-1 convention for empty
// contexts.
func TestRankBatchMatchesRankOf(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	s := m.NewScorer()
	rng := rand.New(rand.NewSource(17))
	ctxs := [][]int{
		randomContext(rng, cfg.Vocab, 5),
		{},
		randomContext(rng, cfg.Vocab, cfg.Window+3),
		randomContext(rng, cfg.Vocab, 1),
		randomContext(rng, cfg.Vocab, 8),
	}
	keys := []int{3, 2, 0, cfg.Vocab + 5, -1}
	ranks := s.RankBatchInto(nil, ctxs, keys)
	for b := range ctxs {
		want := m.RankOf(ctxs[b], keys[b])
		if ranks[b] != want {
			t.Fatalf("ctx %d key %d: RankBatch %d vs RankOf %d", b, keys[b], ranks[b], want)
		}
	}
	if ranks[1] != 1 {
		t.Fatalf("empty context rank = %d, want 1", ranks[1])
	}
	if ranks[2] != cfg.Vocab || ranks[3] != cfg.Vocab || ranks[4] != cfg.Vocab {
		t.Fatalf("invalid keys ranked %v, want worst rank %d", ranks[2:], cfg.Vocab)
	}
}

// BenchmarkScoreBatch is the in-module twin of ucadbench's
// transdas.rank_{f32,f64}_us_per_op_b{1,16} rows, for a five-second
// before/after of a kernel change (make bench-kernel): the paper shape
// (h=64, m=8, B=2, L=30) over inproc-cold's vocabulary size, distinct
// full-window contexts, no cache attached. One op is one context, so
// ns/op and allocs/op read per context at either batch size.
func BenchmarkScoreBatch(b *testing.B) {
	cfg := paperShape(44)
	m := New(cfg)
	rng := rand.New(rand.NewSource(3))
	ctxs := make([][]int, 16)
	for i := range ctxs {
		ctxs[i] = make([]int, cfg.Window)
		for t := range ctxs[i] {
			ctxs[i][t] = 1 + rng.Intn(cfg.Vocab-1)
		}
	}
	for _, bc := range []struct {
		name  string
		prec  Precision
		batch int
	}{
		{"f32/b1", PrecisionFloat32, 1}, {"f32/b16", PrecisionFloat32, 16},
		{"f64/b1", PrecisionFloat64, 1}, {"f64/b16", PrecisionFloat64, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m.SetScorePrecision(bc.prec)
			s := m.NewScorer()
			dst := s.ScoreBatchInto(nil, ctxs[:bc.batch])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += bc.batch {
				dst = s.ScoreBatchInto(dst, ctxs[:bc.batch])
			}
		})
	}
}
