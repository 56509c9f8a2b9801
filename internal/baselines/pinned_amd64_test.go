package baselines

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/tensor"
	"github.com/ucad/ucad/internal/workload"
)

// pinnedCorpus is n Scenario-I sessions tokenized into statement keys,
// with every 23rd key replaced by the pad key 0 (an unknown statement),
// so the embedding's zero row is part of every trajectory.
func pinnedCorpus(n int, seed int64) [][]int {
	v := sqlnorm.NewVocabulary()
	var out [][]int
	i := 0
	for _, s := range workload.NewGenerator(workload.ScenarioI(), seed).GenerateSessions(n) {
		keys := make([]int, len(s.Ops))
		for j, op := range s.Ops {
			if i++; i%23 != 0 {
				keys[j] = v.Learn(op.SQL)
			}
		}
		out = append(out, keys)
	}
	return out
}

// bitsHash accumulates the exact bits of float64s and ints.
type bitsHash struct {
	buf [8]byte
	h   hash.Hash64
}

func newBitsHash() *bitsHash { return &bitsHash{h: fnv.New64a()} }

func (b *bitsHash) float(v float64) { b.uint(math.Float64bits(v)) }

func (b *bitsHash) uint(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:], v)
	b.h.Write(b.buf[:])
}

func (b *bitsHash) params(ps []*tensor.Param) {
	for _, p := range ps {
		for _, v := range p.Value.Data {
			b.float(v)
		}
	}
}

// deepLogFingerprint hashes every parameter after Fit, then the rank of
// every key (and of one key past the vocabulary and one below it) after
// a fixed set of contexts: the empty one, one longer than the window,
// pad keys, and lengths spread over the window.
func deepLogFingerprint(d *DeepLog) uint64 {
	b := newBitsHash()
	b.params(d.params)
	rng := rand.New(rand.NewSource(77))
	ctxs := [][]int{nil, {0}, {0, 1, 0}}
	for i := 0; i < 9; i++ {
		ctx := make([]int, 1+rng.Intn(d.Window+3))
		for j := range ctx {
			ctx[j] = rng.Intn(d.vocab)
		}
		ctxs = append(ctxs, ctx)
	}
	for _, ctx := range ctxs {
		for k := -1; k <= d.vocab; k++ {
			b.uint(uint64(rank(d, ctx, k)))
		}
	}
	return b.h.Sum64()
}

// TestBaselineBitsPinned holds DeepLog's and USAD's training to the
// exact trajectory on file: every parameter's bits after Fit, DeepLog's
// next-key ranks over fixed contexts and USAD's calibrated threshold,
// for DeepLog and USAD at Table 2's quick settings and DeepLog at
// Table 6's shape on the HDFS-like corpus. The constants were taken
// from the tape-based trainers, so they prove any later training path
// replays them bit for bit.
// amd64 only: arm64 fuses multiply-adds, which moves the last bit.
func TestBaselineBitsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three baselines")
	}
	t.Run("deeplog-table2-quick", func(t *testing.T) {
		d := NewDeepLog(1)
		d.Epochs, d.MaxWindows = 3, 1500
		d.Fit(pinnedCorpus(100, 11))
		if got, want := deepLogFingerprint(d), uint64(0xc18e62afb9687bc2); got != want {
			t.Errorf("fingerprint %#x, want %#x", got, want)
		}
	})
	t.Run("usad-table2-quick", func(t *testing.T) {
		u := NewUSAD(1)
		u.Epochs = 6
		u.Fit(pinnedCorpus(100, 12))
		b := newBitsHash()
		b.params(u.params)
		b.float(u.threshold)
		if got, want := b.h.Sum64(), uint64(0x9e03b1cc98f167e9); got != want {
			t.Errorf("fingerprint %#x, want %#x", got, want)
		}
	})
	t.Run("deeplog-table6-hdfs", func(t *testing.T) {
		ds := workload.HDFSLike(80, 40, 40, 2)
		d := NewDeepLog(2)
		d.TopG = ds.Vocab * 3 / 10
		d.Epochs, d.MaxWindows = 3, 1500
		d.Fit(ds.Train)
		if got, want := deepLogFingerprint(d), uint64(0x86da37c08372851a); got != want {
			t.Errorf("fingerprint %#x, want %#x", got, want)
		}
	})
}
