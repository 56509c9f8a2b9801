package nn

import (
	"math"
	"math/rand"
	"slices"

	"github.com/ucad/ucad/internal/tensor"
)

// MaskKind selects which attention mask a MultiHeadAttention layer uses.
// The choice is the central architectural ablation of the paper (§4.3,
// Table 3).
type MaskKind int

const (
	// MaskBidirectionalExceptSelf is the paper's design: output position
	// i attends to every input except input i+1 (the training target
	// itself), using bidirectional context. Eq. 3 with Q_i ⊥ K_{i+1}.
	MaskBidirectionalExceptSelf MaskKind = iota
	// MaskFull is the original transformer encoder: every position
	// attends to every position including itself.
	MaskFull
	// MaskFuture is the original transformer decoder: output position i
	// attends only to inputs 1..i (no future context).
	MaskFuture
)

// String implements fmt.Stringer for diagnostics.
func (k MaskKind) String() string {
	switch k {
	case MaskBidirectionalExceptSelf:
		return "bidirectional-except-self"
	case MaskFull:
		return "full"
	case MaskFuture:
		return "future"
	default:
		return "unknown"
	}
}

const maskNegInf = -1e9

// MaskedScore is the additive score for forbidden attention pairs: low
// enough that its softmax term underflows to exactly 0.0 in float64.
// Exported for the scoring kernel, which applies masks inline.
const MaskedScore = maskNegInf

// BuildMask returns the L x L additive attention mask for the kind:
// 0 where attention is allowed, -1e9 where it is forbidden. Row = output
// (query) position, column = input (key) position.
func BuildMask(kind MaskKind, L int) *tensor.Matrix {
	m := tensor.NewMatrix(L, L)
	switch kind {
	case MaskFull:
		// all zeros
	case MaskFuture:
		for i := 0; i < L; i++ {
			for j := i + 1; j < L; j++ {
				m.Set(i, j, maskNegInf)
			}
		}
	case MaskBidirectionalExceptSelf:
		// The target for output i is input i+1; disconnect Q_i from
		// K_{i+1} so the prediction cannot peek at the answer. The last
		// position's target lies outside the window, so its row is
		// unmasked.
		for i := 0; i < L-1; i++ {
			m.Set(i, i+1, maskNegInf)
		}
	}
	return m
}

// MultiHeadAttention holds the parameters of Eqs. 2–4: the m heads
// project into h/m-dimensional subspaces through WQ, WK and WV, and the
// concatenated head outputs are projected by W^O.
type MultiHeadAttention struct {
	WQ, WK, WV, WO *tensor.Param
	heads          int
}

// NewMultiHeadAttention creates the parameters of an attention layer of
// width dim with the given number of heads, which must divide dim.
func NewMultiHeadAttention(name string, dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	mustDivide(dim, heads)
	return &MultiHeadAttention{
		WQ:    tensor.NewParam(name+".WQ", tensor.NewXavier(dim, dim, rng)),
		WK:    tensor.NewParam(name+".WK", tensor.NewXavier(dim, dim, rng)),
		WV:    tensor.NewParam(name+".WV", tensor.NewXavier(dim, dim, rng)),
		WO:    tensor.NewParam(name+".WO", tensor.NewXavier(dim, dim, rng)),
		heads: heads,
	}
}

// Params implements Module.
func (a *MultiHeadAttention) Params() []*tensor.Param {
	return []*tensor.Param{a.WQ, a.WK, a.WV, a.WO}
}

// AttentionState is what Forward keeps for Backward — the layer's
// input, the projections, every head's softmax rows and the
// concatenated head outputs — plus both passes' scratch. A caller keeps
// one per layer and reuses it; once it has seen the longest input, a
// pass allocates nothing.
type AttentionState struct {
	x, q, k, v, cat *tensor.Matrix   // L x h; x is the caller's input
	probs           []*tensor.Matrix // per head, L x L
	// One head's operands, output and gradients (L x dk), its
	// probabilities' gradient (L x L), and the gradients of the
	// concatenated outputs and the projections (L x h).
	qh, kh, vh, oh, dqh, dkh, dvh, dp *tensor.Matrix
	gcat, dq, dk, dv                  *tensor.Matrix
}

// Weights returns head's softmax rows from the last Forward: row i is
// output position i's attention over the input positions. The matrix is
// the state's own, overwritten by the next Forward.
func (st *AttentionState) Weights(head int) *tensor.Matrix { return st.probs[head] }

// Forward computes MH(x) (Eqs. 2–4) into out, L x h, adding the
// additive mask's leading L x L corner to the scaled scores, and records
// st for Backward.
func (a *MultiHeadAttention) Forward(st *AttentionState, out, x, mask *tensor.Matrix) {
	L, h := x.Rows, x.Cols
	dk := h / a.heads
	st.shape(L, h, a.heads)
	st.x = x
	scale := 1 / math.Sqrt(float64(h)) // Eq. 3 scales by √h, the full hidden dimension
	tensor.MatMulInto(st.q, x, a.WQ.Value)
	tensor.MatMulInto(st.k, x, a.WK.Value)
	tensor.MatMulInto(st.v, x, a.WV.Value)
	for head, p := range st.probs {
		lo := head * dk
		sliceCols(st.qh, st.q, lo)
		sliceCols(st.kh, st.k, lo)
		sliceCols(st.vh, st.v, lo)
		p.Zero()
		tensor.AddMatMulTransposeB(p, st.qh, st.kh)
		for i := 0; i < L; i++ {
			row, mrow := p.Row(i), mask.Row(i)
			for j, v := range row {
				row[j] = float64(scale*v) + mrow[j]
			}
			tensor.SoftmaxInto(row, row)
		}
		tensor.MatMulInto(st.oh, p, st.vh)
		for i := 0; i < L; i++ {
			copy(st.cat.Row(i)[lo:lo+dk], st.oh.Row(i))
		}
	}
	tensor.MatMulInto(out, st.cat, a.WO.Value)
}

// Backward takes gout, the gradient of Forward's output, through W^O,
// every head's value mix, softmax and scores, and the projections: it
// adds the four weights' gradients to gr and x's gradient into gx —
// V's share, then K's, then Q's.
func (a *MultiHeadAttention) Backward(st *AttentionState, gx, gout *tensor.Matrix, gr *Grads) {
	L, h := st.x.Rows, st.x.Cols
	dk := h / a.heads
	scale := 1 / math.Sqrt(float64(h))
	st.gcat.Zero()
	tensor.AddMatMulTransposeB(st.gcat, gout, a.WO.Value)
	gr.AddWeight(a.WO, st.cat, gout)
	for head, p := range st.probs {
		lo := head * dk
		sliceCols(st.oh, st.gcat, lo)
		sliceCols(st.qh, st.q, lo)
		sliceCols(st.kh, st.k, lo)
		sliceCols(st.vh, st.v, lo)
		st.dp.Zero()
		tensor.AddMatMulTransposeB(st.dp, st.oh, st.vh)
		st.dvh.Zero()
		tensor.AddMatMulTransposeA(st.dvh, p, st.oh)
		for r := 0; r < L; r++ {
			g := st.dp.Row(r)
			tensor.SoftmaxRowBackward(g, g, p.Row(r))
			for c, v := range g {
				g[c] = v * scale
			}
		}
		st.dqh.Zero()
		tensor.AddMatMul(st.dqh, st.dp, st.kh)
		st.dkh.Zero()
		tensor.AddMatMulTransposeA(st.dkh, st.dp, st.qh)
		for i := 0; i < L; i++ {
			copy(st.dq.Row(i)[lo:lo+dk], st.dqh.Row(i))
			copy(st.dk.Row(i)[lo:lo+dk], st.dkh.Row(i))
			copy(st.dv.Row(i)[lo:lo+dk], st.dvh.Row(i))
		}
	}
	for _, pg := range []struct {
		w *tensor.Param
		g *tensor.Matrix
	}{{a.WV, st.dv}, {a.WK, st.dk}, {a.WQ, st.dq}} {
		tensor.AddMatMulTransposeB(gx, pg.g, pg.w.Value)
		gr.AddWeight(pg.w, st.x, pg.g)
	}
}

// shape sizes the state for an L-row input of width h split into heads.
func (st *AttentionState) shape(L, h, heads int) {
	for _, p := range []**tensor.Matrix{&st.q, &st.k, &st.v, &st.cat, &st.gcat, &st.dq, &st.dk, &st.dv} {
		*p = tensor.Resize(*p, L, h)
	}
	for _, p := range []**tensor.Matrix{&st.qh, &st.kh, &st.vh, &st.oh, &st.dqh, &st.dkh, &st.dvh} {
		*p = tensor.Resize(*p, L, h/heads)
	}
	st.dp = tensor.Resize(st.dp, L, L)
	st.probs = slices.Grow(st.probs[:0], heads)[:heads]
	for i := range st.probs {
		st.probs[i] = tensor.Resize(st.probs[i], L, L)
	}
}

// sliceCols copies columns [lo, lo+dst.Cols) of src into dst.
func sliceCols(dst, src *tensor.Matrix, lo int) {
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[lo:lo+dst.Cols])
	}
}
