package transdas

import (
	"math"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// kernel is the tape-free fused forward pass (Eqs. 1–7) with its Eq. 10
// read-out, over element type T. There is one implementation; a Scorer
// instantiates it at float64 (the reference, pinned to the tape forward
// at 1e-9 and to the bit by TestScoreBitsPinned) and at float32 (the
// fast path, within the equiv32 contract of the reference). The two
// differ only in the fields precision.go fills in: where the weights
// come from, which matmul runs, and the packed dk=8 attention kernels.
//
// The kernel records no autodiff graph and reuses its scratch matrices
// across calls, so a warm kernel allocates nothing. Padded positions
// embed to the zero vector and are excluded from attention by an
// additive -1e9 mask whose softmax terms underflow to exactly 0 at
// either element type — so every context's scores are bit-independent
// of batch composition and padding length.
type kernel[T tensor.Float] struct {
	w      *weights[T]
	matmul func(dst, a, b *tensor.Mat[T])
	// qk8 and av8 compute one query row's raw scores against, and one
	// output row's value mix over, n strided rows of head width 8 (see
	// tensor.QKScores8 / AttnV8). nil: every head width takes the
	// scalar loops.
	qk8 func(dst, q, k []T, stride int)
	av8 func(out, w, v []T, stride int)

	// Scratch matrices, grown on demand and reused across calls.
	x      *tensor.Mat[T] // activations, (B·L) x h
	qkv    *tensor.Mat[T] // fused Q|K|V projections, (B·L) x 3h
	att    *tensor.Mat[T] // concatenated head outputs, (B·L) x h
	sub    *tensor.Mat[T] // sub-layer output (attention proj / FFN), (B·L) x h
	ffnH   *tensor.Mat[T] // FFN inner activations, (B·L) x h
	scores []T            // one L x L attention-score block

	// Compact last-block scratch, one row per sequence (B x h): the
	// read-out consumes only each sequence's final position, so the last
	// block computes queries, FFN and norms for those rows alone.
	attL, subL, ffnL, outL *tensor.Mat[T]
}

// weights is the parameter set one forward pass reads, at the kernel's
// element type: the live float64 parameters themselves, or a frozen
// float32 conversion of them (see precision.go).
type weights[T tensor.Float] struct {
	gen    uint64        // weight generation a frozen copy was converted at
	emb    tensor.Mat[T] // Eq. 1 embedding table and Eq. 10 read-out table
	pos    tensor.Mat[T] // empty unless cfg.Positional
	blocks []blockWeights[T]
}

// blockWeights is one attention block's parameters.
type blockWeights[T tensor.Float] struct {
	wqkv       *tensor.Mat[T] // h x 3h fused Q|K|V projection
	wo, w1, w2 tensor.Mat[T]
	b1, b2     []T
	ln1, ln2   normWeights[T]
}

// normWeights is one LayerNorm's gain, bias and ε (Eq. 6).
type normWeights[T tensor.Float] struct {
	gain, bias []T
	eps        float64
}

// load points w at the model's current parameters through vec, the one
// conversion a precision supplies: the identity (w aliases the live
// float64 storage) or a converting copy. Q, K and V share their input,
// so their weights are concatenated column-wise into wqkv and one
// matmul computes all three projections; each output element is the
// same k-ascending dot product as three separate matmuls.
func (w *weights[T]) load(m *Model, vec func([]float64) []T) {
	mat := func(p *tensor.Param) tensor.Mat[T] {
		return tensor.Mat[T]{Rows: p.Value.Rows, Cols: p.Value.Cols, Data: vec(p.Value.Data)}
	}
	h := m.cfg.Hidden
	w.emb = mat(m.emb.Table)
	if m.pos != nil {
		w.pos = mat(m.pos)
	}
	if w.blocks == nil {
		w.blocks = make([]blockWeights[T], len(m.blocks))
	}
	for i, blk := range m.blocks {
		b := &w.blocks[i]
		if b.wqkv == nil {
			b.wqkv = tensor.NewMat[T](h, 3*h)
		}
		for r := 0; r < h; r++ {
			row := b.wqkv.Row(r)
			copy(row[:h], vec(blk.att.WQ.Value.Row(r)))
			copy(row[h:2*h], vec(blk.att.WK.Value.Row(r)))
			copy(row[2*h:], vec(blk.att.WV.Value.Row(r)))
		}
		b.wo, b.w1, b.w2 = mat(blk.att.WO), mat(blk.ffn.L1.W), mat(blk.ffn.L2.W)
		b.b1, b.b2 = vec(blk.ffn.L1.B.Value.Data), vec(blk.ffn.L2.B.Value.Data)
		b.ln1 = normWeights[T]{vec(blk.ln1.Gain.Value.Data), vec(blk.ln1.Bias.Value.Data), blk.ln1.Eps}
		b.ln2 = normWeights[T]{vec(blk.ln2.Gain.Value.Data), vec(blk.ln2.Bias.Value.Data), blk.ln2.Eps}
	}
}

// score runs the forward pass over s's slotted cache-miss contexts
// padded to L keys each and writes Eq. 10's similarity row for slot i
// into dst[s.slots[i]]: sim[k] = sigmoid(O_last · M(k)).
func (k *kernel[T]) score(s *Scorer, L int, dst [][]float64) {
	out := k.forward(s, L)
	table := &k.w.emb
	for i, b := range s.slots {
		last := out.Row(i)
		sims := dst[b]
		for key := 1; key < len(sims); key++ {
			row := table.Row(key)
			var dot T
			for j, v := range last {
				dot += v * row[j]
			}
			sims[key] = 1 / (1 + math.Exp(-float64(dot)))
		}
	}
}

// forward runs the stacked forward pass and returns a compact B x h
// matrix whose row i is the final block's output at sequence i's last
// real position — the only row Eq. 10's read-out consumes.
func (k *kernel[T]) forward(s *Scorer, L int) *tensor.Mat[T] {
	w := k.w
	h := w.emb.Cols
	B := len(s.slots)
	rows := B * L

	k.x = ensureMat(k.x, rows, h)
	k.qkv = ensureMat(k.qkv, rows, 3*h)
	k.att = ensureMat(k.att, rows, h)
	k.sub = ensureMat(k.sub, rows, h)
	k.ffnH = ensureMat(k.ffnH, rows, h)
	if cap(k.scores) < L*L {
		k.scores = make([]T, L*L)
	}
	k.scores = k.scores[:L*L]
	mask := s.maskFor(L)

	// Embedding (Eq. 1): PadKey, negative and out-of-vocabulary keys map
	// to the zero vector, exactly as nn.Embedding.Lookup; padded tail
	// positions are zero too.
	pad := s.m.emb.PadKey
	for i, ctx := range s.ctxs {
		for t := 0; t < L; t++ {
			row := k.x.Row(i*L + t)
			if t < len(ctx) && ctx[t] != pad && ctx[t] >= 0 && ctx[t] < w.emb.Rows {
				copy(row, w.emb.Row(ctx[t]))
			} else {
				clear(row)
			}
		}
	}
	if len(w.pos.Data) > 0 {
		// Positional ablation variant: add position t's embedding to
		// every sequence's row t.
		for i := 0; i < B; i++ {
			for t := 0; t < L; t++ {
				row := k.x.Row(i*L + t)
				for c, p := range w.pos.Row(t) {
					row[c] += p
				}
			}
		}
	}

	last := len(w.blocks) - 1
	for i := range w.blocks[:last] {
		blk := &w.blocks[i]
		k.attention(s, blk, mask, L, false)
		// Eq. 5 around attention: x = LN1(x + MH(x)); dropout is the
		// identity at inference. Then Eq. 7's FFN and Eq. 5 again:
		// x = LN2(x + FFN(x)).
		addInPlace(k.x, k.sub)
		layerNormInPlace(k.x, blk.ln1)
		k.ffn(blk, k.sub, k.ffnH, k.x)
		addInPlace(k.x, k.sub)
		layerNormInPlace(k.x, blk.ln2)
	}

	// Last block, compact: every position still contributes keys and
	// values, but only each sequence's last real position is queried,
	// normalized and fed through the FFN — the rest would be discarded
	// by the read-out.
	blk := &w.blocks[last]
	k.attL = ensureMat(k.attL, B, h)
	k.subL = ensureMat(k.subL, B, h)
	k.ffnL = ensureMat(k.ffnL, B, h)
	k.outL = ensureMat(k.outL, B, h)
	k.attention(s, blk, mask, L, true)
	for i := 0; i < B; i++ {
		lastRow := k.x.Row(i*L + s.lens[i] - 1)
		out := k.outL.Row(i)
		sub := k.subL.Row(i)
		for c := range out {
			out[c] = lastRow[c] + sub[c]
		}
	}
	layerNormInPlace(k.outL, blk.ln1)
	k.ffn(blk, k.subL, k.ffnL, k.outL)
	addInPlace(k.outL, k.subL)
	layerNormInPlace(k.outL, blk.ln2)
	return k.outL
}

// ffn computes Eq. 7, dst = max(0, x·W1 + b1)·W2 + b2, through the
// inner-activation scratch hid.
func (k *kernel[T]) ffn(blk *blockWeights[T], dst, hid, x *tensor.Mat[T]) {
	k.matmul(hid, x, &blk.w1)
	for r := 0; r < hid.Rows; r++ {
		row := hid.Row(r)
		for c := range row {
			// Exactly math.Max(0, v), -0 and NaN included.
			v := row[c] + blk.b1[c]
			if v <= 0 {
				v = 0
			}
			row[c] = v
		}
	}
	k.matmul(dst, hid, &blk.w2)
	for r := 0; r < dst.Rows; r++ {
		row := dst.Row(r)
		for c := range row {
			row[c] += blk.b2[c]
		}
	}
}

// attention computes one masked multi-head attention layer (Eqs. 2–4)
// over the B stacked L-row sequences in k.x, leaving the projected
// output in k.sub. Scores never cross sequence boundaries, and key
// columns beyond a sequence's real length get exactly zero weight.
// With last set, only each sequence's final real position is queried
// (all positions still serve as keys and values) and the projected
// B x h output lands in k.subL instead.
func (k *kernel[T]) attention(s *Scorer, blk *blockWeights[T], mask *tensor.Matrix, L int, last bool) {
	h := blk.wo.Rows
	nHeads := s.m.cfg.Heads
	dk := h / nHeads
	scale := T(1 / math.Sqrt(float64(h)))
	masked := T(nn.MaskedScore)

	k.matmul(k.qkv, k.x, blk.wqkv)
	heads, proj := k.att, k.sub
	if last {
		heads, proj = k.attL, k.subL
	}
	heads.Zero()

	// dk=8 is the paper model's head width (h=64, m=8); a precision
	// that has the packed per-row score and value-mix kernels uses them
	// there, every other case the scalar loops.
	cols := k.qkv.Cols
	packed := dk == 8 && k.qk8 != nil
	for head := 0; head < nHeads; head++ {
		qlo := head * dk
		klo, vlo := h+qlo, 2*h+qlo
		for b := range s.slots {
			base := b * L
			n := s.lens[b]
			lo := 0
			if last {
				lo = n - 1
			}
			for i := lo; i < n || (!last && i < L); i++ {
				// Score row: scaled dot products plus the kind mask, with
				// padded key columns forced to -1e9. The scalar loop
				// skips the dot of a kind-masked pair: its softmax term
				// underflows to zero either way.
				qrow := k.qkv.Row(base + i)[qlo : qlo+dk]
				srow := k.scores[i*L : (i+1)*L]
				mrow := mask.Row(i)
				if packed {
					k.qk8(srow[:n], qrow, k.qkv.Data[base*cols+klo:], cols)
					for j := 0; j < n; j++ {
						if mrow[j] != 0 {
							srow[j] = masked
						} else {
							srow[j] *= scale
						}
					}
				} else {
					for j := 0; j < n; j++ {
						if mrow[j] != 0 {
							srow[j] = masked
							continue
						}
						krow := k.qkv.Row(base + j)[klo : klo+dk]
						var dot T
						for c, qv := range qrow {
							dot += qv * krow[c]
						}
						srow[j] = dot * scale
					}
				}
				for j := n; j < L; j++ {
					srow[j] = masked
				}
				tensor.SoftmaxInto(srow, srow)
				// Weighted read-out into this head's output stripe; the
				// masked weights are exactly zero (all of srow[n:] is).
				hrow := base + i
				if last {
					hrow = b
				}
				out := heads.Row(hrow)[qlo : qlo+dk]
				if packed {
					k.av8(out, srow[:n], k.qkv.Data[base*cols+vlo:], cols)
					continue
				}
				for j, w := range srow {
					if w == 0 {
						continue
					}
					vrow := k.qkv.Row(base + j)[vlo : vlo+dk]
					for c, vv := range vrow {
						out[c] += w * vv
					}
				}
			}
		}
	}
	k.matmul(proj, heads, &blk.wo)
}

// ensureMat resizes m to rows x cols, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite fully.
func ensureMat[T tensor.Float](m *tensor.Mat[T], rows, cols int) *tensor.Mat[T] {
	need := rows * cols
	if m == nil || cap(m.Data) < need {
		return tensor.NewMat[T](rows, cols)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols = rows, cols
	return m
}

// addInPlace accumulates dst += src elementwise.
func addInPlace[T tensor.Float](dst, src *tensor.Mat[T]) {
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// layerNormInPlace applies Eq. 6 row-wise: x = g ⊙ (x-μ)/√(σ²+ε) + b,
// with the same operation order as the tape path (NormalizeRows, gain,
// bias) so float64 results match it to the bit. Mean and variance
// accumulate in float64 at either element type: the reductions are
// where float32 error would compound, and O(h) is negligible next to
// the matmuls.
func layerNormInPlace[T tensor.Float](x *tensor.Mat[T], ln normWeights[T]) {
	nf := float64(x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		var mu float64
		for _, v := range row {
			mu += float64(v)
		}
		mu /= nf
		var va float64
		for _, v := range row {
			d := float64(v) - mu
			va += d * d
		}
		va /= nf
		inv, mean := T(1/math.Sqrt(va+ln.eps)), T(mu)
		for c, v := range row {
			row[c] = (v-mean)*inv*ln.gain[c] + ln.bias[c]
		}
	}
}
