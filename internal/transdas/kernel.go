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
// come from (and whether they carry the first block's per-key table),
// which matmul and row softmax run, and the packed dk=8 attention
// kernels.
//
// The kernel records no autodiff graph and reuses its scratch matrices
// across calls, so a warm kernel allocates nothing. It computes only
// what the read-out reads. A batch is stacked ragged — sequence b's
// rows follow sequence b-1's real rows, no padding — and every step is
// either row-wise or confined to one sequence's rows, so a context's
// scores are bit-independent of what else is in the batch. The last
// block projects keys and values for every row but a query, norms and
// FFN for each sequence's final row alone.
type kernel[T tensor.Float] struct {
	w       *weights[T]
	matmul  func(dst, a, b *tensor.Mat[T])
	softmax func(dst, src []T) // one attention row, in place (dst aliases src)
	// qk8 and av8 compute one query row's raw scores against, and one
	// output row's value mix over, n strided rows of head width 8 (see
	// tensor.QKScores8 / AttnV8). nil: every head width takes the
	// scalar loops.
	qk8 func(dst, q, k []T, stride int)
	av8 func(out, w, v []T, stride int)

	// Scratch, grown on demand and reused across calls. R = Σ lens is the
	// batch's real row count.
	x      *tensor.Mat[T] // activations, R x h
	qkv    *tensor.Mat[T] // fused projections: Q|K|V (R x 3h), K|V (R x 2h) in the last block
	att    *tensor.Mat[T] // concatenated head outputs, R x h
	sub    *tensor.Mat[T] // sub-layer output (attention proj / FFN), R x h
	ffnH   *tensor.Mat[T] // FFN inner activations, R x h
	scores []T            // the one live attention-score row, ≤ cfg.Window long

	// Compact last-block scratch, one row per sequence (B x h): its final
	// row's activations (xL, normalized in place into the block output)
	// and query (qL), head outputs, projection and FFN.
	xL, qL, attL, subL, ffnL *tensor.Mat[T]
}

// weights is the parameter set one forward pass reads, at the kernel's
// element type: the live float64 parameters themselves, or a frozen
// float32 conversion of them (see precision.go).
type weights[T tensor.Float] struct {
	gen    uint64        // weight generation a frozen copy was converted at
	emb    tensor.Mat[T] // Eq. 1 embedding table and Eq. 10 read-out table
	pos    tensor.Mat[T] // empty unless cfg.Positional
	blocks []blockWeights[T]
	// qkv0 is the first block's fused projection as a per-key table,
	// emb · blocks[0].wqkv with the PadKey row zero: without a positional
	// embedding block 0's input row is emb[key], so its projection is a
	// pure function of the key and block 0 gathers rows instead of
	// multiplying. nil (live weights, positional variant): block 0
	// multiplies like every other block.
	qkv0 *tensor.Mat[T]
}

// blockWeights is one attention block's parameters.
type blockWeights[T tensor.Float] struct {
	// wqkv is the fused projection every row goes through: Q|K|V
	// (h x 3h), or K|V (h x 2h) in the last block, whose queries are
	// projected through wq for each sequence's final row only.
	wqkv       *tensor.Mat[T]
	wq         tensor.Mat[T] // last block only
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
// float64 storage) or a converting copy. The projections that share
// their input are concatenated column-wise into wqkv so one matmul
// computes them all; each output element is the same k-ascending dot
// product as separate matmuls.
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
		fused := []*tensor.Param{blk.att.WQ, blk.att.WK, blk.att.WV}
		if i == len(m.blocks)-1 {
			b.wq, fused = mat(blk.att.WQ), fused[1:]
		}
		if b.wqkv == nil {
			b.wqkv = tensor.NewMat[T](h, len(fused)*h)
		}
		for r := 0; r < h; r++ {
			row := b.wqkv.Row(r)
			for j, p := range fused {
				copy(row[j*h:(j+1)*h], vec(p.Value.Row(r)))
			}
		}
		b.wo, b.w1, b.w2 = mat(blk.att.WO), mat(blk.ffn.L1.W), mat(blk.ffn.L2.W)
		b.b1, b.b2 = vec(blk.ffn.L1.B.Value.Data), vec(blk.ffn.L2.B.Value.Data)
		b.ln1 = normWeights[T]{vec(blk.ln1.Gain.Value.Data), vec(blk.ln1.Bias.Value.Data), blk.ln1.Eps}
		b.ln2 = normWeights[T]{vec(blk.ln2.Gain.Value.Data), vec(blk.ln2.Bias.Value.Data), blk.ln2.Eps}
	}
}

// score runs the forward pass over s's slotted cache-miss contexts and
// writes Eq. 10's similarity row for slot i into dst[s.slots[i]]:
// sim[k] = sigmoid(O_last · M(k)).
func (k *kernel[T]) score(s *Scorer, dst [][]float64) {
	out := k.forward(s)
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
// position — the only row Eq. 10's read-out consumes.
func (k *kernel[T]) forward(s *Scorer) *tensor.Mat[T] {
	w := k.w
	h := w.emb.Cols
	B := len(s.slots)
	s.offs = s.offs[:0]
	rows := 0
	for _, n := range s.lens {
		s.offs = append(s.offs, rows)
		rows += n
	}

	k.x = ensureMat(k.x, rows, h)
	k.att = ensureMat(k.att, rows, h)
	k.sub = ensureMat(k.sub, rows, h)
	k.ffnH = ensureMat(k.ffnH, rows, h)
	if cap(k.scores) < s.m.cfg.Window {
		k.scores = make([]T, s.m.cfg.Window)
	}

	// Embedding (Eq. 1): PadKey, negative and out-of-vocabulary keys map
	// to the zero vector, exactly as nn.Embedding.Lookup. The positional
	// ablation variant adds position t's embedding to every sequence's
	// row t.
	for i, ctx := range s.ctxs {
		for t, key := range ctx {
			row := k.x.Row(s.offs[i] + t)
			if s.inVocab(key) {
				copy(row, w.emb.Row(key))
			} else {
				clear(row)
			}
			if len(w.pos.Data) > 0 {
				for c, p := range w.pos.Row(t) {
					row[c] += p
				}
			}
		}
	}

	last := len(w.blocks) - 1
	for i := range w.blocks[:last] {
		blk := &w.blocks[i]
		k.project(s, i)
		k.attention(s, blk, false)
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
	// values, but only each sequence's last position is queried,
	// normalized and fed through the FFN — the rest would be discarded
	// by the read-out.
	blk := &w.blocks[last]
	k.xL = ensureMat(k.xL, B, h)
	k.qL = ensureMat(k.qL, B, h)
	k.attL = ensureMat(k.attL, B, h)
	k.subL = ensureMat(k.subL, B, h)
	k.ffnL = ensureMat(k.ffnL, B, h)
	k.project(s, last)
	for i := 0; i < B; i++ {
		copy(k.xL.Row(i), k.x.Row(s.offs[i]+s.lens[i]-1))
	}
	k.matmul(k.qL, k.xL, &blk.wq)
	k.attention(s, blk, true)
	addInPlace(k.xL, k.subL)
	layerNormInPlace(k.xL, blk.ln1)
	k.ffn(blk, k.subL, k.ffnL, k.xL)
	addInPlace(k.xL, k.subL)
	layerNormInPlace(k.xL, blk.ln2)
	return k.xL
}

// project fills k.qkv with block i's fused projection of every row of
// k.x: a gather from the per-key table when the weights carry one for
// this block, the matmul otherwise. A table row is what the matmul
// computes for that key's embedding row, bit for bit, and a key that
// embeds to the zero vector projects to the zero row either way.
func (k *kernel[T]) project(s *Scorer, i int) {
	wqkv := k.w.blocks[i].wqkv
	k.qkv = ensureMat(k.qkv, k.x.Rows, wqkv.Cols)
	if i > 0 || k.w.qkv0 == nil {
		k.matmul(k.qkv, k.x, wqkv)
		return
	}
	for b, ctx := range s.ctxs {
		for t, key := range ctx {
			row := k.qkv.Row(s.offs[b] + t)
			if s.inVocab(key) {
				copy(row, k.w.qkv0.Row(key))
			} else {
				clear(row)
			}
		}
	}
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
// over the stacked sequences, from the projections in k.qkv, leaving the
// projected output in k.sub. Scores never cross sequence boundaries.
// With last set, only each sequence's final position is queried (its
// query row is k.qL's; all positions still serve as keys and values)
// and the projected B x h output lands in k.subL instead.
func (k *kernel[T]) attention(s *Scorer, blk *blockWeights[T], last bool) {
	h := blk.wo.Rows
	nHeads := s.m.cfg.Heads
	dk := h / nHeads
	scale := T(1 / math.Sqrt(float64(h)))
	masked := T(nn.MaskedScore)
	mask := s.kindMask()

	heads, proj := k.att, k.sub
	if last {
		heads, proj = k.attL, k.subL
	}
	heads.Zero()

	// dk=8 is the paper model's head width (h=64, m=8); a precision
	// that has the packed per-row score and value-mix kernels uses them
	// there, every other case the scalar loops.
	cols := k.qkv.Cols
	k0 := cols - 2*h // the K stripe follows Q, or leads when Q is not fused
	q := k.qkv
	if last {
		q = k.qL
	}
	packed := dk == 8 && k.qk8 != nil
	for head := 0; head < nHeads; head++ {
		qlo := head * dk
		klo, vlo := k0+qlo, k0+h+qlo
		for b := range s.slots {
			base, n := s.offs[b], s.lens[b]
			srow := k.scores[:n]
			lo := 0
			if last {
				lo = n - 1
			}
			for i := lo; i < n; i++ {
				// Score row: scaled dot products plus the kind mask. The
				// scalar loop skips the dot of a kind-masked pair: its
				// softmax term is exactly zero either way.
				hrow := base + i
				if last {
					hrow = b
				}
				qrow := q.Row(hrow)[qlo : qlo+dk]
				mrow := mask.Row(i)
				if packed {
					k.qk8(srow, qrow, k.qkv.Data[base*cols+klo:], cols)
					for j := range srow {
						if mrow[j] != 0 {
							srow[j] = masked
						} else {
							srow[j] *= scale
						}
					}
				} else {
					for j := range srow {
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
				k.softmax(srow, srow)
				// Weighted read-out into this head's output stripe.
				out := heads.Row(hrow)[qlo : qlo+dk]
				if packed {
					k.av8(out, srow, k.qkv.Data[base*cols+vlo:], cols)
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
