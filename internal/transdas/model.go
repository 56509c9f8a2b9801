package transdas

import (
	"math/rand"
	"strconv"
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

	// scorers pools Scorers for the wrapper API (RankOf, RankBatch,
	// DetectSession, ...), so concurrent detection reuses warm scratch
	// buffers instead of allocating per call.
	scorers sync.Pool

	// negWarn fires the degenerate-vocabulary warning once per model;
	// degenerateVocab records that it fired (training fell back to the
	// CE-only objective because no negative key exists to sample).
	negWarn         sync.Once
	degenerateVocab atomic.Bool

	// Inference fast-path state (see precision.go and scorecache):
	// scoreCache memoizes similarity rows by context (nil = disabled),
	// prec32 selects the float32 scoring kernel, and w64/snap32 hold the
	// weights each kernel instantiation reads, built on first use. A
	// model is never changed once it can be scored (FineTune returns a
	// copy), so they are built once and shared read-only by every Scorer;
	// only a fresh model's Train drops them.
	scoreCache atomic.Pointer[scorecache.Cache]
	prec32     atomic.Bool
	w64        atomic.Pointer[weights[float64]]
	snap32     atomic.Pointer[weights[float32]]
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
		name := "transdas.block" + strconv.Itoa(i)
		m.blocks = append(m.blocks, &block{
			att: nn.NewMultiHeadAttention(name+".att", cfg.Hidden, cfg.Heads, rng),
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
// cache consulted by every Scorer before the forward pass. Train bumps
// the attached cache; a fine-tuned copy starts with none, and the
// serving layer moves its cache (bumped) onto each model it installs,
// so the lifetime hit/miss counters stay monotonic across swaps.
func (m *Model) SetScoreCache(c *scorecache.Cache) { m.scoreCache.Store(c) }

// ScoreCache returns the attached score cache (nil when disabled).
func (m *Model) ScoreCache() *scorecache.Cache { return m.scoreCache.Load() }

// SetScorePrecision selects the scoring kernel: PrecisionFloat64 (the
// default — the training/reference path, exact to 1e-9 against the
// training step's full forward pass) or PrecisionFloat32 (the
// single-precision fast path, within 1e-4 of the reference and
// rank-stable on the paper's workloads).
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

// AttentionWeights runs a forward pass over keys — the first
// cfg.Window of them, a window being the longest input the model reads —
// and returns the post-softmax attention weights of the first attention
// block, one L x L matrix per head for the L keys read: the paper's
// Figure 6 introspection. It only reads the parameters, so it is safe
// beside concurrent scoring.
func (m *Model) AttentionWeights(keys []int) []*tensor.Matrix {
	keys = keys[:min(len(keys), m.cfg.Window)]
	s := m.newStep(nil)
	s.forward(keys, false, nil)
	out := make([]*tensor.Matrix, m.cfg.Heads)
	for i := range out {
		out[i] = s.blocks[0].att.Weights(i).Clone()
	}
	return out
}
