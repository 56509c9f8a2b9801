package transdas

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/scorecache"
)

// paperShape is the §4 model the float32 path is built for (h=64, m=8,
// B=2, L=30; dk=8 takes the packed attention kernels).
func paperShape(vocab int) Config {
	cfg := DefaultConfig(vocab)
	cfg.Hidden, cfg.Heads, cfg.Blocks = 64, 8, 2
	return cfg
}

// scoreCopy scores ctxs on a fresh Scorer and returns rows the caller
// owns.
func scoreCopy(m *Model, ctxs [][]int) [][]float64 {
	return m.NewScorer().ScoreBatchInto(nil, ctxs)
}

// requireSameBits fails unless got and want agree bit for bit.
func requireSameBits(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for b := range want {
		for k := range want[b] {
			if got[b][k] != want[b][k] {
				t.Fatalf("%s: ctx %d key %d: %v != %v", what, b, k, got[b][k], want[b][k])
			}
		}
	}
}

// dropTable replaces the model's float32 snapshot with a copy that has
// no first-block table, so block 0 runs the matmul.
func dropTable(m *Model) {
	w := *m.snapshot32()
	w.qkv0 = nil
	m.snap32.Store(&w)
}

// mixedContexts draws n contexts with lengths spread over (and past)
// the window, pad and out-of-vocabulary keys included.
func mixedContexts(rng *rand.Rand, cfg Config, n int) [][]int {
	ctxs := make([][]int, n)
	for i := range ctxs {
		ctxs[i] = randomContext(rng, cfg.Vocab, 1+rng.Intn(cfg.Window+3))
	}
	return ctxs
}

// TestFirstBlockTableMatchesMatmul proves the per-key table exact: the
// float32 scores block 0 gathers from it equal, bit for bit, the scores
// of the same snapshot with the table removed (block 0 multiplies) — on
// the paper shape and on a one-block model, where block 0 is also the
// last block. The positional variant, whose block-0 input is not a
// function of the key alone, builds no table.
func TestFirstBlockTableMatchesMatmul(t *testing.T) {
	oneBlock := paperShape(50)
	oneBlock.Blocks = 1
	for name, cfg := range map[string]Config{"paper-shape": paperShape(50), "one-block": oneBlock} {
		t.Run(name, func(t *testing.T) {
			m := New(cfg)
			m.SetScorePrecision(PrecisionFloat32)
			ctxs := mixedContexts(rand.New(rand.NewSource(31)), cfg, 12)
			if m.snapshot32().qkv0 == nil {
				t.Fatal("no first-block table on a model without positional embedding")
			}
			withTable := scoreCopy(m, ctxs)
			dropTable(m)
			if m.snapshot32().qkv0 != nil {
				t.Fatal("table-less snapshot was not kept")
			}
			requireSameBits(t, "table vs matmul", withTable, scoreCopy(m, ctxs))
		})
	}
	pos := paperShape(50)
	pos.Positional = true
	if New(pos).snapshot32().qkv0 != nil {
		t.Fatal("positional model built a first-block table")
	}
}

// TestScoresIndependentOfBatchComposition proves that a context's
// scores are a function of the context alone, at both precisions:
// alone, first or last among fifteen others of mixed lengths,
// duplicated within a batch, and behind an empty context it gets
// identical bits. (ucadbench's correctness check relies on exactly
// this: it compares served verdicts with a batch-of-one reference.)
func TestScoresIndependentOfBatchComposition(t *testing.T) {
	cfg := paperShape(50)
	m := New(cfg)
	rng := rand.New(rand.NewSource(37))
	others := mixedContexts(rng, cfg, 15)
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		m.SetScorePrecision(prec)
		for _, n := range []int{1, 7, cfg.Window} {
			ctx := randomContext(rng, cfg.Vocab, n)
			alone := scoreCopy(m, [][]int{ctx})
			for name, batch := range map[string]struct {
				ctxs [][]int
				at   []int
			}{
				"first":       {append([][]int{ctx}, others...), []int{0}},
				"last":        {append(append([][]int{}, others...), ctx), []int{len(others)}},
				"duplicated":  {[][]int{ctx, others[0], ctx}, []int{0, 2}},
				"after-empty": {[][]int{{}, ctx}, []int{1}},
			} {
				got := scoreCopy(m, batch.ctxs)
				for _, i := range batch.at {
					requireSameBits(t, prec.String()+" "+name, got[i:i+1], alone)
				}
			}
		}
	}
}

// TestFirstBlockTableDiesWithItsGeneration proves the table is never
// served past the weights it was built from: after a fine-tune round a
// warm float32 Scorer's scores equal those of the table-less matmul on
// the new weights, and a save -> Load round trip scores exactly like
// the model it was saved from.
func TestFirstBlockTableDiesWithItsGeneration(t *testing.T) {
	m := trainToy(t)
	m.SetScorePrecision(PrecisionFloat32)
	rng := rand.New(rand.NewSource(41))
	ctxs := mixedContexts(rng, m.cfg, 10)
	warm := m.NewScorer()
	before := scoreCopy(m, ctxs)
	old := m.snapshot32()

	m.FineTune(toySessions(10, rng), 3, nil)
	got := warm.ScoreBatchInto(nil, ctxs)
	if w := m.snapshot32(); w == old || w.qkv0 == old.qkv0 {
		t.Fatal("fine-tune kept the old snapshot or its table")
	}
	changed := false
	for b := range got {
		for k := range got[b] {
			changed = changed || got[b][k] != before[b][k]
		}
	}
	if !changed {
		t.Fatal("fine-tune left every score identical; the check is vacuous")
	}

	var blob bytes.Buffer
	if err := m.Save(&blob); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&blob)
	if err != nil {
		t.Fatal(err)
	}
	loaded.SetScorePrecision(PrecisionFloat32)
	requireSameBits(t, "loaded vs saved", scoreCopy(loaded, ctxs), got)

	dropTable(m)
	requireSameBits(t, "post-tune table vs matmul on the new weights", got, scoreCopy(m, ctxs))
}

// TestPrecisionFlipInvalidatesCachedRows: rows cached at one precision
// must not be served at the other, or a float32 verdict would depend on
// cache state. After warming at float64 and flipping, every row equals
// a cache-less float32 scorer's bits; setting the precision already in
// force keeps the cache's hits.
func TestPrecisionFlipInvalidatesCachedRows(t *testing.T) {
	m := trainToy(t)
	ctxs := cacheTestContexts(rand.New(rand.NewSource(43)), m, 10)

	m.SetScorePrecision(PrecisionFloat32)
	want := scoreCopy(m, ctxs) // no cache attached
	m.SetScorePrecision(PrecisionFloat64)

	c := scorecache.New(256)
	m.SetScoreCache(c)
	scoreCopy(m, ctxs) // warm at float64
	m.SetScorePrecision(PrecisionFloat32)
	requireSameBits(t, "after the flip", scoreCopy(m, ctxs), want)
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("the flipped pass hit %d float64 rows", st.Hits)
	}

	m.SetScorePrecision(PrecisionFloat32) // unchanged: must not bump
	requireSameBits(t, "unchanged precision", scoreCopy(m, ctxs), want)
	if st := c.Stats(); st.Hits != uint64(len(ctxs)) {
		t.Fatalf("stats = %+v, want %d hits after an unchanged SetScorePrecision", st, len(ctxs))
	}
}
