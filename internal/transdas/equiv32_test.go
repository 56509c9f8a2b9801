package transdas

import (
	"math"
	"math/rand"
	"testing"
)

// float32Tol is the score tolerance contract of the single-precision
// kernel: every similarity agrees with the float64 reference within
// 1e-4. The float64 kernel itself stays pinned to the tape forward at
// 1e-9 by the property tests — this suite never relaxes those.
const float32Tol = 1e-4

// rankBand computes the [low, high] rank interval consistent with the
// float64 similarities under the tolerance: any kernel whose scores sit
// within tol of the reference must rank key inside this band. Verdict
// checks use the band against TopP, so genuine near-ties at the
// boundary cannot flake the suite while real rank instability fails it.
func rankBand(sims []float64, key int, tol float64) (low, high int) {
	if key <= 0 || key >= len(sims) {
		return len(sims), len(sims)
	}
	target := sims[key]
	low, high = 1, 1
	for k := 1; k < len(sims); k++ {
		if k == key {
			continue
		}
		if sims[k] > target+2*tol {
			low++
		}
		if sims[k] > target-2*tol {
			high++
		}
	}
	return low, high
}

// assertFloat32Equivalence scores every context through both kernels on
// the same model and asserts the tolerance contract, rank stability and
// verdict agreement.
func assertFloat32Equivalence(t *testing.T, m *Model, ctxs [][]int, keys []int) {
	t.Helper()
	if m.prec32.Load() {
		t.Fatal("model must start on the float64 reference path")
	}
	s64 := m.NewScorer()
	ref := make([][]float64, len(ctxs))
	for i := range ref {
		ref[i] = make([]float64, m.cfg.Vocab)
	}
	ref = s64.ScoreBatchInto(ref, ctxs)

	m.SetScorePrecision(PrecisionFloat32)
	defer m.SetScorePrecision(PrecisionFloat64)
	s32 := m.NewScorer()
	got := make([][]float64, len(ctxs))
	for i := range got {
		got[i] = make([]float64, m.cfg.Vocab)
	}
	got = s32.ScoreBatchInto(got, ctxs)
	ranks32 := s32.RankBatchInto(nil, ctxs, keys)

	for b := range ctxs {
		for k := range ref[b] {
			if d := math.Abs(ref[b][k] - got[b][k]); d > float32Tol {
				t.Fatalf("ctx %d key %d: float64 %.9f vs float32 %.9f (diff %g > %g)",
					b, k, ref[b][k], got[b][k], d, float32Tol)
			}
		}
		low, high := rankBand(ref[b], keys[b], float32Tol)
		if ranks32[b] < low || ranks32[b] > high {
			t.Fatalf("ctx %d key %d: float32 rank %d outside the reference band [%d, %d]",
				b, keys[b], ranks32[b], low, high)
		}
		// Verdict agreement: outside the boundary band the top-p verdict
		// must be identical in both precisions.
		p := m.cfg.TopP
		anom32 := ranks32[b] > p
		if high <= p && anom32 {
			t.Fatalf("ctx %d key %d: float32 flags (rank %d) where float64 cannot (band [%d,%d], p=%d)",
				b, keys[b], ranks32[b], low, high, p)
		}
		if low > p && !anom32 {
			t.Fatalf("ctx %d key %d: float32 passes (rank %d) where float64 cannot (band [%d,%d], p=%d)",
				b, keys[b], ranks32[b], low, high, p)
		}
	}
}

// equivContexts draws a mixed batch: normal role-consistent contexts,
// an empty context, an over-window context and pad/OOV keys to rank.
func equivContexts(rng *rand.Rand, vocab, window, n int) (ctxs [][]int, keys []int) {
	ctxs = make([][]int, n)
	keys = make([]int, n)
	for i := range ctxs {
		switch i {
		case 0:
			ctxs[i] = nil
			keys[i] = 1
		case 1:
			ctxs[i] = randomContext(rng, vocab, window+7)
			keys[i] = 0 // PadKey ranks last in both precisions
		default:
			ctxs[i] = randomContext(rng, vocab, 1+rng.Intn(window))
			keys[i] = 1 + rng.Intn(vocab-1)
		}
	}
	return ctxs, keys
}

// TestFloat32EquivalenceScenarioI runs the equivalence contract on the
// Scenario-I-shaped toy model (h=10-class width, trained role grammar).
func TestFloat32EquivalenceScenarioI(t *testing.T) {
	m := trainToy(t)
	rng := rand.New(rand.NewSource(31))
	ctxs, keys := equivContexts(rng, m.cfg.Vocab, m.cfg.Window, 24)
	// Include genuine role sessions, where the trained structure (and
	// the anomaly verdicts) live.
	for i, s := range toySessions(6, rng) {
		ctxs = append(ctxs, s[:4+i])
		keys = append(keys, s[4+i])
	}
	assertFloat32Equivalence(t, m, ctxs, keys)
}

// TestFloat32EquivalenceScenarioIIShape runs the contract at the
// paper's Scenario-II width (h=64, m=8 heads) where float32 rounding
// has the most room to compound across the deeper dot products.
func TestFloat32EquivalenceScenarioIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a Scenario-II-width model")
	}
	cfg := DefaultConfig(80)
	cfg.Hidden, cfg.Heads, cfg.Blocks = 64, 8, 2
	cfg.Window, cfg.TopP = 30, 10
	cfg.Epochs = 3
	cfg.Dropout = 0
	cfg.MinContext = 2
	cfg.Seed = 11
	m := New(cfg)
	rng := rand.New(rand.NewSource(23))
	sessions := make([][]int, 40)
	for i := range sessions {
		s := make([]int, 24)
		base := 1 + (i%4)*18
		for j := range s {
			s[j] = base + rng.Intn(18)
		}
		sessions[i] = s
	}
	m.Train(sessions, nil)
	ctxs, keys := equivContexts(rng, cfg.Vocab, cfg.Window, 20)
	for i := 0; i < 6; i++ {
		s := sessions[i*5]
		ctxs = append(ctxs, s[:6+i])
		keys = append(keys, s[6+i])
	}
	assertFloat32Equivalence(t, m, ctxs, keys)
}

// TestFloat32SnapshotTracksFineTune: a fine-tuned copy's float32
// snapshot is built from its own weights, so its float32 scores agree
// with its float64 ones, not with the weights of the model it was
// copied from — which keeps its snapshot and scores bit-unchanged.
func TestFloat32SnapshotTracksFineTune(t *testing.T) {
	m := trainToy(t)
	rng := rand.New(rand.NewSource(41))
	ctx := toySessions(1, rng)[0][:6]

	m.SetScorePrecision(PrecisionFloat32)
	before := freeze(m, [][]int{ctx})

	tuned, _ := m.FineTune(toySessions(10, rng), 3, nil)
	requireUnchanged(t, m, [][]int{ctx}, before)
	after32 := tuned.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]
	tuned.SetScorePrecision(PrecisionFloat64)
	after64 := tuned.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]

	for k := range after64 {
		if d := math.Abs(after64[k] - after32[k]); d > float32Tol {
			t.Fatalf("key %d: post-finetune float32 %.9f vs float64 %.9f (diff %g) — stale snapshot?",
				k, after32[k], after64[k], d)
		}
	}
	// Sanity: the fine-tune actually moved the scores, otherwise the
	// staleness assertion above is vacuous.
	moved := false
	for k, v := range before.scores[0] {
		if math.Abs(v-after32[k]) > 1e-6 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fine-tune did not change any score; staleness check is vacuous")
	}
}

// TestPrecisionString covers the names boot lines and probes print.
func TestPrecisionString(t *testing.T) {
	if PrecisionFloat32.String() != "float32" || PrecisionFloat64.String() != "float64" {
		t.Fatal("Precision.String mismatch")
	}
}
