package transdas

import (
	"math"
	"math/rand"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// The training step is the fused kernel's float64 training pass: Eq. 11
// for one window through a full forward pass over every row of every
// block, then a hand-written backward pass through the Eq. 10 head, both
// LayerNorms, the FFN, the residuals, attention and the embedding, over
// scratch a trainWorker reuses window after window (a warm step
// allocates nothing). The layers' passes are nn's (MultiHeadAttention,
// LayerNorm and FeedForward Forward/Backward); the step owns the
// embedding, the residuals and dropout, and the head.
//
// It replays the tape-based autodiff it replaced bit for bit
// (TestTrainBitsPinned): every product runs through the primitive the
// tape's op called, a value several consumers read sums their gradient
// contributions in reverse consumer order, and a parameter's gradient is
// its own fresh sum, folded into the worker's buffer afterwards. The
// embedding table's two such sums (the read-out's, then the lookup's)
// scatter into touched rows only: adding +0 to a buffer that never holds
// -0 is the identity, and so is skipping an exactly-zero term. Where the
// tape stored an intermediate between two ops, an explicit float64
// conversion keeps that rounding on platforms that fuse multiply-adds.

// step is one worker's forward and backward scratch, sized for windows
// of up to cfg.Window rows (h = Hidden, L the window's length). The
// layers' own passes (nn's Forward and Backward) keep their state in
// each block's nn states.
type step struct {
	m      *Model
	mask   *tensor.Matrix // the kind mask at cfg.Window; a shorter window reads its corner
	rounds int            // negative rounds R, 0 under the CE-only objective
	blocks []stepBlock
	out    *tensor.Matrix // the last block's output

	// L x h temporaries: a sub-layer's output or pre-norm sum (tmp) and
	// gradients.
	tmp, gy, gx, ga, g1 *tensor.Matrix

	// The Eq. 10 head: R rounds of L negatives, their read-out
	// similarities then logit gradients, and the positives' logit
	// gradients.
	neg        []int
	gneg, gpos []float64

	grads *nn.Grads      // the buffers gradients add into
	table *tensor.Matrix // V x h, zero outside the rows a sum is landing in
}

// stepBlock is the forward state one attention block's backward pass
// reads.
type stepBlock struct {
	x            *tensor.Matrix // block input
	att          nn.AttentionState
	ln1, ln2     nn.NormState
	ffn          nn.FFNState
	drop1, drop2 *tensor.Matrix // dropout multipliers: 0 or 1/(1-rate)
	x1           *tensor.Matrix // LN1 output, the FFN's input
}

// newStep sizes a step for the model; grads are the buffers its
// gradients add into, aligned with m.params (nil: a forward-only step).
func (m *Model) newStep(grads []*tensor.Matrix) *step {
	s := &step{m: m, mask: nn.BuildMask(m.cfg.Mask, m.cfg.Window), blocks: make([]stepBlock, len(m.blocks))}
	if m.cfg.Objective == ObjectiveTripletCE {
		s.rounds = max(m.cfg.NegSamples, 1)
	}
	if grads != nil {
		s.grads = nn.NewGrads(m.params, grads)
		s.table = tensor.NewMatrix(m.cfg.Vocab, m.cfg.Hidden)
	}
	s.shape(m.cfg.Window)
	return s
}

// shape resizes the scratch to an L-row window, reusing its backing
// arrays (newStep sizes them for cfg.Window, the longest window).
func (s *step) shape(L int) {
	h := s.m.cfg.Hidden
	for i := range s.blocks {
		b := &s.blocks[i]
		for _, p := range []**tensor.Matrix{&b.x, &b.drop1, &b.drop2, &b.x1} {
			*p = tensor.Resize(*p, L, h)
		}
	}
	for _, p := range []**tensor.Matrix{&s.out, &s.tmp, &s.gy, &s.gx, &s.ga, &s.g1} {
		*p = tensor.Resize(*p, L, h)
	}
	s.neg, s.gneg = ensureSlice(s.neg, max(s.rounds, 1)*L), ensureSlice(s.gneg, s.rounds*L)
	s.gpos = ensureSlice(s.gpos, L)
}

// ensureSlice resizes v to n elements, reusing its backing array when
// large enough. Contents are unspecified.
func ensureSlice[E any](v []E, n int) []E {
	if cap(v) < n {
		return make([]E, n)
	}
	return v[:n]
}

// forward runs the stacked blocks over keys (Eqs. 1–9) and returns the
// L x h output O^(B), keeping each block's forward state for backward.
// With train set, dropout draws its masks from rng — per block, the
// attention residual's then the FFN residual's, row-major.
func (s *step) forward(keys []int, train bool, rng *rand.Rand) *tensor.Matrix {
	m := s.m
	L := len(keys)
	s.shape(L)
	x := s.blocks[0].x
	m.emb.Forward(x, keys)
	if m.pos != nil {
		tensor.AddInto(x, tensor.SliceRows(m.pos.Value, 0, L))
	}
	rate := 0.0
	if train {
		rate = m.cfg.Dropout
	}
	for i, blk := range m.blocks {
		b, out := &s.blocks[i], s.out
		if i+1 < len(s.blocks) {
			out = s.blocks[i+1].x
		}
		// Eq. 5 around attention, x1 = LN1(x + Dropout(MH(x))), then
		// around Eq. 7's FFN, out = LN2(x1 + Dropout(FFN(x1))).
		blk.att.Forward(&b.att, s.tmp, b.x, s.mask)
		residual(s.tmp, b.x, b.drop1, rate, rng)
		blk.ln1.Forward(&b.ln1, b.x1, s.tmp)
		blk.ffn.Forward(&b.ffn, s.tmp, b.x1)
		residual(s.tmp, b.x1, b.drop2, rate, rng)
		blk.ln2.Forward(&b.ln2, out, s.tmp)
	}
	return s.out
}

// residual turns the sub-layer output fx into the pre-norm sum
// x + Dropout(fx) in place (Eq. 5), drawing the dropout multipliers
// into mult when rate > 0.
func residual(fx, x, mult *tensor.Matrix, rate float64, rng *rand.Rand) {
	if rate > 0 {
		tensor.DropoutMask(mult.Data, rate, rng)
	}
	for i, v := range fx.Data {
		if rate > 0 {
			v = 0 // a dropped element
			if k := mult.Data[i]; k != 0 {
				v = fx.Data[i] * k
			}
		}
		fx.Data[i] = x.Data[i] + v
	}
}

// run trains one window: the forward pass with dropout, Eq. 11's loss
// and its backward pass, adding every parameter's gradient into the
// step's buffers. It returns the window's mean loss and its number of
// valid positions; a window with none trains nothing. rng draws in the
// tape's order: the dropout masks, then negative round 0 (drawn under
// the CE-only objective too, which ignores it), then rounds 1..R-1.
func (s *step) run(win window, rng *rand.Rand) (float64, int) {
	m := s.m
	out := s.forward(win.keys, true, rng)
	L, R := len(win.targets), s.rounds
	if R > 0 && m.cfg.Vocab <= 2 {
		// A vocabulary of k0 plus one key cannot yield a negative
		// sample: train the one-class CE objective alone.
		R = 0
		m.warnDegenerateVocab()
	} else {
		m.sampleNegativesInto(s.neg[:L], win, rng)
	}
	valid := 0
	for _, tgt := range win.targets {
		if tgt > 0 {
			valid++
		}
	}
	if valid == 0 {
		return 0, 0
	}
	for r := 1; r < R; r++ {
		m.sampleNegativesInto(s.neg[r*L:(r+1)*L], win, rng)
	}
	loss := s.head(win.targets, s.neg[:R*L], valid, out)
	s.backward(win.keys)
	return loss, valid
}

// readKey maps a target or negative to its read-out row: -1 (a zero row
// with no gradient) for PadKey, a missing negative and out-of-range
// keys.
func (s *step) readKey(k int) int {
	if k <= 0 || k >= s.m.cfg.Vocab {
		return -1
	}
	return k
}

// sim is Eq. 10's similarity sigmoid(o · M(k)) for read-out key k.
func (s *step) sim(o []float64, k int) float64 {
	var dot float64
	if k = s.readKey(k); k >= 0 {
		for c, e := range s.m.emb.Table.Value.Row(k) {
			dot += float64(o[c] * e)
		}
	}
	return 1 / (1 + math.Exp(-dot))
}

// head evaluates Eq. 11 over the window's valid positions,
//
//	mean_i  -log z_i^+ + (1/R) Σ_r max(z_{r,i}^- - z_i^+ + g, 0),
//
// with z^± = sigmoid(O_i · M(x_±)) (Eq. 10) and neg holding R rounds of
// negatives, and leaves the loss's gradient with respect to the output
// in s.gy. It also folds the read-out table's gradient into the
// embedding buffer. The ‖θ‖₂ term is the SGD step's decoupled weight
// decay.
func (s *step) head(targets, neg []int, valid int, out *tensor.Matrix) float64 {
	L, margin := len(targets), s.m.cfg.Margin
	R := len(neg) / L
	invR, gs := 1/float64(max(R, 1)), 1/float64(valid)
	var sum float64
	s.gy.Zero()
	for i, tgt := range targets {
		if tgt <= 0 {
			continue // no target: the position's term is masked out
		}
		o, g := out.Row(i), s.gy.Row(i)
		zp := s.sim(o, tgt)
		per := -1 * math.Log(math.Max(zp, 1e-12))
		for r := 0; r < R; r++ {
			zn := s.sim(o, neg[r*L+i])
			s.gneg[r*L+i] = zn
			per += float64(invR * math.Max(0, float64(zn-zp)+margin))
		}
		sum += per
		// The output's gradient and z⁺'s each sum the negative rounds'
		// terms, last round first, then the positive's.
		var gz float64
		for r := R - 1; r >= 0; r-- {
			j := r*L + i
			zn := s.gneg[j]
			s.gneg[j] = 0
			if float64(zn-zp)+margin <= 0 {
				continue // ReLU-clamped: every contribution is zero
			}
			gh := gs * invR
			s.gneg[j] = gh * (zn * (1 - zn))
			gz += gh * -1
			s.addRow(g, s.gneg[j], neg[j])
		}
		gz += gs * -1 * (1 / math.Max(zp, 1e-12))
		s.gpos[i] = gz * (zp * (1 - zp))
		s.addRow(g, s.gpos[i], tgt)
	}

	// The read-out table's gradient, in the same order, as its own sum.
	for r := R - 1; r >= 0; r-- {
		for i, tgt := range targets {
			if tgt > 0 {
				s.scatter(neg[r*L+i], s.gneg[r*L+i], out.Row(i))
			}
		}
	}
	for i, tgt := range targets {
		if tgt > 0 {
			s.scatter(tgt, s.gpos[i], out.Row(i))
		}
	}
	s.foldTable(neg)
	s.foldTable(targets)
	return gs * sum
}

// addRow adds a·M(k) into g for read-out key k.
func (s *step) addRow(g []float64, a float64, k int) {
	if k = s.readKey(k); k >= 0 {
		for c, e := range s.m.emb.Table.Value.Row(k) {
			g[c] += a * e
		}
	}
}

// scatter adds a·o into table row k, the read-out or lookup gradient of
// key k's embedding row.
func (s *step) scatter(k int, a float64, o []float64) {
	if k = s.readKey(k); k >= 0 && a != 0 {
		row := s.table.Row(k)
		for c, v := range o {
			row[c] += float64(a * v)
		}
	}
}

// foldTable adds the table rows keys touched into the embedding buffer
// and clears them; a row met twice adds +0 the second time.
func (s *step) foldTable(keys []int) {
	embG := s.grads.Of(s.m.emb.Table)
	for _, k := range keys {
		if k = s.readKey(k); k >= 0 {
			dst, src := embG.Row(k), s.table.Row(k)
			for c, v := range src {
				dst[c] += v
			}
			clear(src)
		}
	}
}

// backward propagates s.gy, the gradient of the last block's output,
// down the blocks to the embedding, adding every parameter's gradient
// into the step's buffers.
func (s *step) backward(keys []int) {
	m := s.m
	rate := m.cfg.Dropout
	for i := len(m.blocks) - 1; i >= 0; i-- {
		blk, b := m.blocks[i], &s.blocks[i]
		// LN2 and the FFN residual: x1 receives the residual's gradient
		// first, then the FFN input's.
		blk.ln2.Backward(&b.ln2, s.ga, s.gy, s.grads)
		copy(s.g1.Data, s.ga.Data)
		blk.ffn.Backward(&b.ffn, s.g1, dropBackward(s.ga, b.drop2, rate), s.grads)

		// LN1 and the attention residual: x receives the residual's
		// gradient, then attention's.
		blk.ln1.Backward(&b.ln1, s.ga, s.g1, s.grads)
		copy(s.gx.Data, s.ga.Data)
		blk.att.Backward(&b.att, s.gx, dropBackward(s.ga, b.drop1, rate), s.grads)
		s.gx, s.gy = s.gy, s.gx
	}

	// The embedding: the positional table's rows (the window's lead),
	// then the lookup's touched rows as their own sum.
	if m.pos != nil {
		tensor.AddInto(tensor.SliceRows(s.grads.Of(m.pos), 0, len(keys)), s.gy)
	}
	for i, key := range keys {
		s.scatter(key, 1, s.gy.Row(i))
	}
	s.foldTable(keys)
}

// dropBackward scales g in place by the dropout multipliers (a no-op
// without dropout) and returns it.
func dropBackward(g, mult *tensor.Matrix, rate float64) *tensor.Matrix {
	if rate > 0 {
		for i, k := range mult.Data {
			g.Data[i] *= k
		}
	}
	return g
}
