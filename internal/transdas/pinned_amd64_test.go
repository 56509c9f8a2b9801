package transdas

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/nn"
)

// pinnedModel builds a seeded model and perturbs every parameter with
// seeded noise, so layer-norm gains, biases and FFN biases are
// non-trivial without depending on the training trajectory: the
// fingerprints below pin the scoring kernel and nothing else.
func pinnedModel(cfg Config) *Model {
	m := New(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	for _, p := range m.params {
		for i := range p.Value.Data {
			p.Value.Data[i] += 0.05 * rng.NormFloat64()
		}
	}
	return m
}

// pinnedContexts is a fixed mixed batch: an empty context, one longer
// than the window, pad/out-of-vocabulary keys, and lengths spread over
// the window.
func pinnedContexts(cfg Config) [][]int {
	rng := rand.New(rand.NewSource(77))
	ctxs := [][]int{nil, randomContext(rng, cfg.Vocab, cfg.Window+5), {1}, {0, 2, cfg.Vocab + 1}}
	for i := 0; i < 12; i++ {
		ctxs = append(ctxs, randomContext(rng, cfg.Vocab, 1+rng.Intn(cfg.Window)))
	}
	return ctxs
}

// scoreFingerprint hashes the exact bits of every similarity row: the
// contexts scored as one stacked batch, then each alone.
func scoreFingerprint(m *Model, ctxs [][]int) uint64 {
	s := m.NewScorer()
	h := fnv.New64a()
	var buf [8]byte
	hashRows := func(rows [][]float64) {
		for _, row := range rows {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	hashRows(s.ScoreBatchInto(nil, ctxs))
	for _, ctx := range ctxs {
		hashRows(s.ScoreBatchInto(nil, [][]int{ctx}))
	}
	return h.Sum64()
}

// TestScoreBitsPinned holds both instantiations of the fused kernel to
// the exact similarity bits on file. The float64 fingerprints were
// taken on the commit before the two hand-kept kernels became one
// generic kernel (PR 16), so they prove that refactor bit-identical and
// gate every later kernel change — PR 23's ragged stacking, last-block
// queries for the last rows only and first-block table included, none
// of which moved a bit at either precision (each was run against the
// PR 16 float32 constants before the next landed). The float32 ones
// were re-pinned once since, at PR 23, for the packed float32 softmax
// (tensor.SoftmaxInto32) alone: its exponential is a float32
// polynomial where SoftmaxInto's is float64 libm.
// amd64 only: arm64 fuses multiply-adds, which moves the last bit.
func TestScoreBitsPinned(t *testing.T) {
	scenarioI := DefaultConfig(40)
	scenarioI.Seed = 5
	paper := DefaultConfig(120)
	paper.Hidden, paper.Heads, paper.Blocks, paper.Seed = 64, 8, 2, 6
	positional := DefaultConfig(40)
	positional.Positional, positional.Seed = true, 7

	for _, tc := range []struct {
		name           string
		cfg            Config
		want64, want32 uint64
	}{
		{"scenario-I", scenarioI, 0x4b6fe530b04619a5, 0x78400abcfac2fa19},
		{"paper-shape", paper, 0xca26b5f99549f185, 0x11750cf8631bb0e9},
		{"positional", positional, 0xcebae6dc36e2152d, 0x2ca60951ee796c41},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := pinnedModel(tc.cfg)
			ctxs := pinnedContexts(tc.cfg)
			if got := scoreFingerprint(m, ctxs); got != tc.want64 {
				t.Errorf("float64 fingerprint %#x, want %#x", got, tc.want64)
			}
			m.SetScorePrecision(PrecisionFloat32)
			if got := scoreFingerprint(m, ctxs); got != tc.want32 {
				t.Errorf("float32 fingerprint %#x, want %#x", got, tc.want32)
			}
		})
	}
}

// pinnedSessions is a seeded training corpus over keys 1..vocab-1 with
// pad keys mixed in: lengths spread below and past the window, and a
// leading session whose first windows have no valid target at all.
func pinnedSessions(cfg Config, n int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := [][]int{{0, 0, 0, 1}}
	for i := 0; i < n; i++ {
		s := make([]int, 2+rng.Intn(cfg.Window+10))
		for j := range s {
			if rng.Intn(20) == 0 {
				continue // PadKey
			}
			s[j] = 1 + rng.Intn(cfg.Vocab-1)
		}
		out = append(out, s)
	}
	return out
}

// trainFingerprint hashes the exact bits of every parameter and of each
// epoch's mean loss.
func trainFingerprint(m *Model, res TrainResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range m.params {
		for _, v := range p.Value.Data {
			put(v)
		}
	}
	for _, l := range res.EpochLoss {
		put(l)
	}
	return h.Sum64()
}

// TestTrainBitsPinned holds training to the exact trajectory on file:
// the weights and per-epoch losses after Train, then of the copy one
// more FineTune round returns, for the Scenario-I default (dropout, three negative
// rounds, six blocks, sequential SGD), the benchmark's paper shape
// (two workers, batch 16, stride 12), the positional + future-mask +
// CE-only ablation, the full mask trained data-parallel with dropout,
// and a two-key vocabulary (the CE fallback). The constants were taken
// from the tape-based trainer, so they prove the fused training step
// replays it bit for bit — except paper-shape and full-mask-parallel,
// re-pinned when nn.Grads stopped summing each gradient in scratch
// before adding it: where one worker sums several windows per step,
// each window's terms now land in the worker's buffer one by one, so
// the rounding of the sum moves. At one window per step it does not.
// amd64 only: arm64 fuses multiply-adds, which moves the last bit.
func TestTrainBitsPinned(t *testing.T) {
	scenarioI := DefaultConfig(40)
	scenarioI.Epochs = 3
	paper := DefaultConfig(120)
	paper.Hidden, paper.Heads, paper.Blocks, paper.Window = 64, 8, 2, 30
	paper.Stride, paper.Dropout, paper.Epochs = 12, 0, 2
	paper.TrainWorkers, paper.BatchSize = 2, 16
	ablation := DefaultConfig(30)
	ablation.Hidden, ablation.Blocks, ablation.Epochs = 8, 2, 3
	ablation.Positional, ablation.Mask, ablation.Objective = true, nn.MaskFuture, ObjectiveCEOnly
	full := DefaultConfig(30)
	full.Hidden, full.Blocks, full.Epochs, full.Mask = 8, 2, 3, nn.MaskFull
	full.TrainWorkers, full.BatchSize = 3, 4
	tiny := DefaultConfig(2)
	tiny.Hidden, tiny.Blocks, tiny.Window, tiny.Epochs = 4, 1, 6, 3

	for _, tc := range []struct {
		name            string
		cfg             Config
		sessions        int
		wantTrain, want uint64
	}{
		{"scenario-I", scenarioI, 8, 0x7937fba3599209a2, 0x15ea5b071e865a45},
		{"paper-shape", paper, 24, 0x8605a7f3ecae8bfd, 0x37d3d1ecadbd3a54},
		{"positional-future-ce", ablation, 8, 0x2deda43562829ff9, 0xec01f9cea26c4acb},
		{"full-mask-parallel", full, 8, 0x20c7891825dacb78, 0x93da2be3c517cd4e},
		{"vocab-2", tiny, 6, 0x8dbd5d0c1e37dafd, 0xdfa8b9bb4d75deca},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(tc.cfg)
			res := m.Train(pinnedSessions(tc.cfg, tc.sessions, tc.cfg.Seed+1), nil)
			if got := trainFingerprint(m, res); got != tc.wantTrain {
				t.Errorf("after Train: fingerprint %#x, want %#x", got, tc.wantTrain)
			}
			tuned, res := m.FineTune(pinnedSessions(tc.cfg, tc.sessions/2, tc.cfg.Seed+2), 1, nil)
			if got := trainFingerprint(tuned, res); got != tc.want {
				t.Errorf("after FineTune: fingerprint %#x, want %#x", got, tc.want)
			}
		})
	}
}
