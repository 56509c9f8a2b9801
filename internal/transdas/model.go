package transdas

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/tensor"
)

// block is one attention block (Fig. 3b): masked multi-head attention
// and a point-wise feed-forward layer, each wrapped in Eq. 5's
// residual + dropout + layer-norm regularization.
type block struct {
	att      *nn.MultiHeadAttention
	ln1, ln2 *nn.LayerNorm
	ffn      *nn.FeedForward
}

func (b *block) forward(tp *tensor.Tape, x *tensor.Node, mask *tensor.Matrix, dropout float64, train bool, rng *rand.Rand) *tensor.Node {
	x = nn.Residual(tp, b.ln1, x, b.att.Forward(tp, x, mask), dropout, train, rng)
	x = nn.Residual(tp, b.ln2, x, b.ffn.Forward(tp, x), dropout, train, rng)
	return x
}

func (b *block) params() []*tensor.Param {
	return nn.CollectParams(b.att, b.ln1, b.ln2, b.ffn)
}

// Model is a Trans-DAS instance.
type Model struct {
	cfg    Config
	emb    *nn.Embedding
	pos    *tensor.Param // nil unless cfg.Positional
	blocks []*block
	params []*tensor.Param
	rng    *rand.Rand

	// scorers pools tape-free Scorers for the single-item wrapper API
	// (RankOf, DetectSession, ...), so concurrent detection
	// reuses warm scratch buffers instead of allocating per call.
	scorers sync.Pool

	// negWarn fires the degenerate-vocabulary warning once per model;
	// degenerateVocab records that it fired (training fell back to the
	// CE-only objective because no negative key exists to sample).
	negWarn         sync.Once
	degenerateVocab atomic.Bool

	// Inference fast-path state (see precision.go and scorecache):
	// scoreCache memoizes similarity rows by context (nil = disabled),
	// prec32 selects the float32 scoring kernel, weightGen counts weight
	// mutations (every train/fine-tune round bumps it), and snap32 holds
	// the frozen single-precision weight snapshot — the first block's
	// per-key projection table included — for the current generation,
	// rebuilt lazily under snapMu after a weight change.
	scoreCache atomic.Pointer[scorecache.Cache]
	prec32     atomic.Bool
	weightGen  atomic.Uint64
	snap32     atomic.Pointer[weights[float32]]
	snapMu     sync.Mutex
}

// New builds a model from the configuration. It panics on an invalid
// configuration; call cfg.Validate first when the values are untrusted.
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		cfg: cfg,
		emb: nn.NewEmbedding("transdas.emb", cfg.Vocab, cfg.Hidden, rng),
		rng: rng,
	}
	if cfg.Positional {
		m.pos = tensor.NewParam("transdas.pos", tensor.NewRandN(cfg.Window, cfg.Hidden, 0.1, rng))
	}
	for i := 0; i < cfg.Blocks; i++ {
		name := "transdas.block" + itoa(i)
		m.blocks = append(m.blocks, &block{
			att: nn.NewMultiHeadAttention(name+".att", cfg.Hidden, cfg.Heads, cfg.Mask, rng),
			ln1: nn.NewLayerNorm(name+".ln1", cfg.Hidden),
			ln2: nn.NewLayerNorm(name+".ln2", cfg.Hidden),
			ffn: nn.NewFeedForward(name+".ffn", cfg.Hidden, cfg.Hidden, rng),
		})
	}
	m.params = m.emb.Params()
	if m.pos != nil {
		m.params = append(m.params, m.pos)
	}
	for _, b := range m.blocks {
		m.params = append(m.params, b.params()...)
	}
	m.scorers.New = func() any { return m.NewScorer() }
	return m
}

// Config returns a copy of the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// SetTrainParallelism overrides the training mini-batch size and
// data-parallel worker count — the serving layer applies its flags to a
// loaded model with this before the first fine-tune (the persisted
// configuration keeps whatever the model was trained with). It must not
// be called concurrently with Train/FineTune.
func (m *Model) SetTrainParallelism(workers, batchSize int) {
	m.cfg.TrainWorkers = workers
	m.cfg.BatchSize = batchSize
}

// SetScoreCache attaches (or, with nil, detaches) a similarity-row
// cache consulted by every Scorer before the forward pass. The cache
// must be bumped on every weight change; Train/FineTune do so
// automatically for the attached cache, and detect.Online.SwapModel
// carries the old model's cache (bumped) onto its replacement so the
// lifetime hit/miss counters stay monotonic across hot swaps.
func (m *Model) SetScoreCache(c *scorecache.Cache) { m.scoreCache.Store(c) }

// ScoreCache returns the attached score cache (nil when disabled).
func (m *Model) ScoreCache() *scorecache.Cache { return m.scoreCache.Load() }

// SetScorePrecision selects the scoring kernel: PrecisionFloat64 (the
// default — the training/reference path, exact to 1e-9 against the tape
// forward) or PrecisionFloat32 (the single-precision fast path, within
// 1e-4 of the reference and rank-stable on the paper's workloads).
// Training always runs in float64 regardless of this setting. A change
// of precision bumps the attached score cache, whose rows were scored
// at the old one; setting the precision already in force keeps them.
func (m *Model) SetScorePrecision(p Precision) {
	f32 := p == PrecisionFloat32
	if m.prec32.Swap(f32) == f32 {
		return
	}
	if c := m.scoreCache.Load(); c != nil {
		c.Bump()
	}
}

// bumpWeightGen records a weight mutation: the float32 snapshot is
// invalidated (rebuilt lazily on the next float32 score) and every
// cached similarity row becomes stale. Called by train() after each
// Train/FineTune round, under whatever lock serializes training against
// scoring (detect.Online's model write-lock in the serving layer).
func (m *Model) bumpWeightGen() {
	m.weightGen.Add(1)
	if c := m.scoreCache.Load(); c != nil {
		c.Bump()
	}
}

// forward runs the stacked attention blocks over a key window of length
// ≤ cfg.Window and returns the L x h output O^(B) (Eqs. 8–9). Dropout
// (train=true only) draws from the model's own RNG stream.
func (m *Model) forward(tp *tensor.Tape, keys []int, train bool) *tensor.Node {
	return m.forwardRNG(tp, keys, train, m.rng)
}

// forwardRNG is forward with an explicit dropout RNG, so data-parallel
// training workers draw from private per-worker streams instead of
// racing on the model's.
func (m *Model) forwardRNG(tp *tensor.Tape, keys []int, train bool, rng *rand.Rand) *tensor.Node {
	L := len(keys)
	x := m.emb.Lookup(tp, keys)
	if m.pos != nil {
		// Learnable position embedding for the ablation variant.
		x = tp.Add(x, tp.SliceRows(tp.Param(m.pos), 0, L))
	}
	mask := nn.BuildMask(m.cfg.Mask, L)
	for _, b := range m.blocks {
		x = b.forward(tp, x, mask, m.cfg.Dropout, train, rng)
	}
	return x
}

// AttentionWeights runs a forward pass over keys and returns the
// post-softmax attention weights of the first attention block, one
// len(keys) x len(keys) matrix per head. This reproduces the paper's
// Figure 6 introspection. It must not run concurrently with other
// uses of the model (it temporarily enables weight capture).
func (m *Model) AttentionWeights(keys []int) []*tensor.Matrix {
	att := m.blocks[0].att
	att.Capture = true
	defer func() { att.Capture = false }()
	tp := tensor.NewTape()
	m.forward(tp, keys, false)
	return att.LastWeights()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
