package baselines

import (
	"math/rand"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// DeepLog is the LSTM log-anomaly detector of Du et al. [21]: a
// next-key language model over statement keys; an operation whose key is
// not among the model's top-g predictions makes the session anomalous.
// DeepLog depends on strict operation ordering, which is exactly what
// heterogeneous database access patterns violate — the source of its
// high FPR in Table 2.
type DeepLog struct {
	// Window is the history length h fed to the LSTM (default 10).
	Window int
	// Hidden is the LSTM width (default 32); Embed the key embedding
	// size (default 24 — the original uses one-hot, an embedding is the
	// standard efficient equivalent).
	Hidden, Embed int
	// TopG is the number of candidate next keys considered normal
	// (default 9, the DeepLog paper's g).
	TopG int
	// Epochs and LR control Adam training.
	Epochs int
	LR     float64
	// MaxWindows caps training windows per epoch (0 = all).
	MaxWindows int
	// Seed drives initialization and shuffling.
	Seed int64

	vocab  int
	emb    *nn.Embedding
	cell   *nn.LSTMCell
	head   *nn.Linear
	params []*tensor.Param
	rng    *rand.Rand
}

// NewDeepLog returns a detector with the original paper's defaults.
func NewDeepLog(seed int64) *DeepLog {
	return &DeepLog{Window: 10, Hidden: 32, Embed: 24, TopG: 9, Epochs: 5, LR: 0.01, Seed: seed}
}

// Name implements metrics.Detector.
func (d *DeepLog) Name() string { return "DeepLog" }

type dlWindow struct {
	ctx  []int
	next int
}

// Fit implements metrics.Detector.
func (d *DeepLog) Fit(train [][]int) {
	var windows []dlWindow
	for _, s := range train {
		for t := 1; t < len(s); t++ {
			windows = append(windows, dlWindow{ctx: s[max(t-d.Window, 0):t], next: s[t]})
		}
	}
	if len(windows) == 0 {
		d.emb = nil // stay untrained: Flag reports nothing
		return
	}
	d.vocab = MaxKey(train) + 1
	d.rng = rand.New(rand.NewSource(d.Seed))
	d.emb = nn.NewEmbedding("deeplog.emb", d.vocab, d.Embed, d.rng)
	d.cell = nn.NewLSTMCell("deeplog.lstm", d.Embed, d.Hidden, d.rng)
	d.head = nn.NewLinear("deeplog.head", d.Hidden, d.vocab, d.rng)
	d.params = nn.CollectParams(d.emb, d.cell, d.head)
	opt := nn.NewAdam(d.LR)
	gr := nn.ParamGrads(d.params)
	sc := new(dlScratch)
	order := make([]int, len(windows))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < d.Epochs; epoch++ {
		d.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		limit := len(order)
		if d.MaxWindows > 0 && d.MaxWindows < limit {
			limit = d.MaxWindows
		}
		for _, wi := range order[:limit] {
			w := windows[wi]
			d.forward(sc, w.ctx)
			d.backward(sc, w, gr)
			opt.Step(d.params)
		}
	}
}

// dlScratch is one context's forward and backward state. Fit keeps one
// for all its windows; Flag, which metrics.Evaluate runs concurrently,
// keeps one per call.
type dlScratch struct {
	x, gx     *tensor.Matrix // the embedded context and its gradient
	lstm      nn.LSTMState
	h, gh     *tensor.Matrix // the last hidden state and its gradient
	logits, g *tensor.Matrix // 1 x vocab next-key scores and their gradient
}

// forward runs the LSTM over ctx and writes the 1 x vocab next-key
// scores into sc.logits.
func (d *DeepLog) forward(sc *dlScratch, ctx []int) {
	sc.x = tensor.Resize(sc.x, len(ctx), d.Embed)
	d.emb.Forward(sc.x, ctx)
	sc.h = d.cell.Forward(&sc.lstm, sc.x)
	sc.logits = tensor.Resize(sc.logits, 1, d.vocab)
	d.head.Forward(sc.logits, sc.h)
}

// backward adds the gradient of w's next-key cross-entropy, for the
// scores forward left in sc, to every parameter's buffer in gr.
func (d *DeepLog) backward(sc *dlScratch, w dlWindow, gr *nn.Grads) {
	sc.g = tensor.Resize(sc.g, 1, d.vocab)
	tensor.CrossEntropyRow(sc.g.Data, sc.logits.Data, w.next)
	sc.gh = tensor.Resize(sc.gh, 1, d.Hidden)
	sc.gh.Zero()
	d.head.Backward(sc.gh, sc.h, sc.g, gr)
	sc.gx = tensor.Resize(sc.gx, len(w.ctx), d.Embed)
	sc.gx.Zero()
	d.cell.Backward(&sc.lstm, sc.gx, sc.gh, gr)
	d.emb.Backward(gr, w.ctx, sc.gx)
}

// rankOf returns the 1-based rank of key in the next-key prediction:
// one more than the number of keys scored strictly higher.
func (d *DeepLog) rankOf(sc *dlScratch, ctx []int, key int) int {
	d.forward(sc, ctx)
	logits := sc.logits.Data
	if key < 0 || key >= len(logits) {
		return len(logits) + 1
	}
	rank := 1
	for _, v := range logits {
		if v > logits[key] {
			rank++
		}
	}
	return rank
}

// Flag implements metrics.Detector.
func (d *DeepLog) Flag(keys []int) bool {
	if d.emb == nil {
		return false
	}
	sc := new(dlScratch)
	for t := 1; t < len(keys); t++ {
		if keys[t] <= 0 || keys[t] >= d.vocab {
			return true // unseen statement key
		}
		if d.rankOf(sc, keys[max(t-d.Window, 0):t], keys[t]) > d.TopG {
			return true
		}
	}
	return false
}
