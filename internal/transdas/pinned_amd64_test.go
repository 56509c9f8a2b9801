package transdas

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
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
