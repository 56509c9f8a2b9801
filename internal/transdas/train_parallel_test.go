package transdas

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// trainSequential is the pre-parallel reference trajectory: one window,
// one training step, one SGD step, all randomness from the model's own
// stream. The data-parallel trainer with TrainWorkers=1 and BatchSize=1
// is bit-identical to it (asserted by the equivalence tests); it is kept
// as the executable specification the tests compare against.
func (m *Model) trainSequential(windows []window, epochs int, lr float64, progress func(int, float64)) TrainResult {
	res := TrainResult{Windows: len(windows)}
	if len(windows) == 0 {
		return res
	}
	opt := nn.NewSGD(lr, m.cfg.Momentum)
	order := make([]int, len(windows))
	for i := range order {
		order[i] = i
	}
	grads := make([]*tensor.Matrix, len(m.params))
	for i, p := range m.params {
		grads[i] = p.Grad
	}
	s := m.newStep(grads)
	for epoch := 0; epoch < epochs; epoch++ {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		var count int
		for _, wi := range order {
			loss, valid := s.run(windows[wi], m.rng)
			if valid == 0 {
				continue
			}
			m.applyStep(opt)
			total += loss * float64(valid)
			count += valid
		}
		mean := 0.0
		if count > 0 {
			mean = total / float64(count)
		}
		res.EpochLoss = append(res.EpochLoss, mean)
		if progress != nil {
			progress(epoch, mean)
		}
	}
	return res
}

// cloneSessions builds a fixed toy corpus for the equivalence suite.
func parallelTestSessions() [][]int {
	return toySessions(12, rand.New(rand.NewSource(21)))
}

// paramsBitEqual reports the first parameter where the two models'
// values differ bit-for-bit ("" when identical).
func paramsBitEqual(a, b *Model) string {
	for i, pa := range a.params {
		pb := b.params[i]
		for j, v := range pa.Value.Data {
			if v != pb.Value.Data[j] {
				return pa.Name
			}
		}
	}
	return ""
}

// TestParallelMatchesSequentialBitExact: the data-parallel engine with
// TrainWorkers=1 and BatchSize=1 must replay the sequential reference
// trajectory bit-for-bit — per-epoch losses and every trained weight —
// so pre-parallel experiment reproductions stay valid.
func TestParallelMatchesSequentialBitExact(t *testing.T) {
	sessions := parallelTestSessions()
	cfg := testConfig()
	cfg.Epochs = 4
	cfg.Dropout = 0.1 // exercise the dropout RNG stream too
	cfg.TrainWorkers = 1
	cfg.BatchSize = 1

	seq := New(cfg)
	seqRes := seq.trainSequential(seq.collectWindows(sessions), cfg.Epochs, cfg.LR, nil)

	par := New(cfg)
	parRes := par.Train(sessions, nil)

	if len(seqRes.EpochLoss) != len(parRes.EpochLoss) {
		t.Fatalf("epoch count %d != %d", len(parRes.EpochLoss), len(seqRes.EpochLoss))
	}
	for e := range seqRes.EpochLoss {
		if seqRes.EpochLoss[e] != parRes.EpochLoss[e] {
			t.Fatalf("epoch %d loss %x != sequential %x", e, parRes.EpochLoss[e], seqRes.EpochLoss[e])
		}
	}
	if name := paramsBitEqual(seq, par); name != "" {
		t.Fatalf("parameter %s diverged from the sequential trajectory", name)
	}
}

// TestParallelTrainingReproducible: a fixed (seed, BatchSize,
// TrainWorkers) must be bit-reproducible across runs — the window
// sharding is positional and every worker has its own seeded RNG
// stream, so goroutine scheduling cannot leak into the result.
func TestParallelTrainingReproducible(t *testing.T) {
	sessions := parallelTestSessions()
	build := func() (*Model, TrainResult) {
		cfg := testConfig()
		cfg.Epochs = 3
		cfg.Dropout = 0.1
		cfg.TrainWorkers = 4
		cfg.BatchSize = 8
		m := New(cfg)
		return m, m.Train(sessions, nil)
	}
	m1, r1 := build()
	m2, r2 := build()
	for e := range r1.EpochLoss {
		if r1.EpochLoss[e] != r2.EpochLoss[e] {
			t.Fatalf("epoch %d loss not reproducible: %x vs %x", e, r1.EpochLoss[e], r2.EpochLoss[e])
		}
	}
	if name := paramsBitEqual(m1, m2); name != "" {
		t.Fatalf("parameter %s not reproducible across runs", name)
	}
}

// TestMiniBatchGradEquivalence: the reduced mini-batch gradient must
// equal the sum of per-window step gradients. The config pins every
// source of randomness out of the gradients (CE-only objective so the
// unused negative draws cannot matter, zero dropout) and strips decay,
// clipping and momentum with LR=1, so after one single-batch epoch
// reference_param - trained_param IS the reduced gradient.
func TestMiniBatchGradEquivalence(t *testing.T) {
	sessions := parallelTestSessions()
	cfg := testConfig()
	cfg.Objective = ObjectiveCEOnly
	cfg.Dropout = 0
	cfg.WeightDecay = 0
	cfg.ClipNorm = 0
	cfg.Momentum = 0
	cfg.LR = 1
	cfg.Epochs = 1
	cfg.TrainWorkers = 4

	ref := New(cfg)
	windows := ref.collectWindows(sessions)
	cfg.BatchSize = len(windows) // the whole epoch is one mini-batch

	trained := New(cfg)
	trained.Train(sessions, nil)

	// Sum of independent per-window step gradients on the untouched
	// reference weights (ref and trained start bit-identical).
	grads := make([]*tensor.Matrix, len(ref.params))
	for i, p := range ref.params {
		grads[i] = p.Grad
	}
	s := ref.newStep(grads)
	rng := rand.New(rand.NewSource(99))
	for _, w := range windows {
		s.run(w, rng)
	}

	for i, p := range ref.params {
		tp := trained.params[i]
		for j, g := range p.Grad.Data {
			got := p.Value.Data[j] - tp.Value.Data[j] // LR=1 step
			if math.Abs(got-g) > 1e-9 {
				t.Fatalf("param %s[%d]: batch grad %v, per-window sum %v", p.Name, j, got, g)
			}
		}
	}
}

// TestDegenerateVocabFallsBackToCE: a two-key vocabulary (k0 plus one
// key) has no negative-sample candidates; the 20-attempt loops would
// silently emit -1 everywhere and train the triplet term against the
// zero embedding. The trainer must fall back to the CE objective and
// still make progress.
func TestDegenerateVocabFallsBackToCE(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Hidden = 4
	cfg.Heads = 2
	cfg.Blocks = 1
	cfg.Window = 4
	cfg.Epochs = 2
	cfg.Dropout = 0
	m := New(cfg)
	res := m.Train([][]int{{1, 1, 1, 1, 1}, {1, 1, 1}}, nil)
	if !m.degenerateVocab.Load() {
		t.Fatal("degenerate vocabulary did not trigger the CE-only fallback")
	}
	for e, l := range res.EpochLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("epoch %d loss %v not finite", e, l)
		}
	}
}

// TestParallelTrainingRace exercises the data-parallel trainer at four
// workers with concurrent scoring so `make check` (race detector)
// covers the worker barrier, the per-worker gradient sinks and the
// read-only forward sharing of parameter values.
func TestParallelTrainingRace(t *testing.T) {
	cfg := testConfig()
	cfg.Epochs = 2
	cfg.Dropout = 0.1
	cfg.TrainWorkers = 4
	cfg.BatchSize = 4
	m := New(cfg)
	res := m.Train(parallelTestSessions(), nil)
	if len(res.EpochLoss) != cfg.Epochs || res.Windows == 0 {
		t.Fatalf("parallel training did not run: %+v", res)
	}
	for _, l := range res.EpochLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss %v not finite", l)
		}
	}
}
