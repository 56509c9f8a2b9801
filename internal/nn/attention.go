package nn

import (
	"math"
	"math/rand"

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
// Exported for tape-free inference kernels that apply masks inline.
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

// MultiHeadAttention implements Eqs. 2–4 with a pluggable mask. The m
// heads project into h/m-dimensional subspaces; outputs are concatenated
// and projected by W^O.
type MultiHeadAttention struct {
	WQ, WK, WV, WO *tensor.Param
	Heads          int
	Mask           MaskKind

	// Capture enables recording of post-softmax attention weights on
	// each forward pass (the paper's Figure 6 introspection). It is off
	// by default so concurrent inference shares the layer safely.
	Capture bool
	// lastWeights stores the captured weights, one L x L matrix per
	// head.
	lastWeights []*tensor.Matrix
}

// NewMultiHeadAttention creates an attention layer of width dim with the
// given number of heads and mask kind.
func NewMultiHeadAttention(name string, dim, heads int, mask MaskKind, rng *rand.Rand) *MultiHeadAttention {
	mustDivide(dim, heads)
	return &MultiHeadAttention{
		WQ:    tensor.NewParam(name+".WQ", tensor.NewXavier(dim, dim, rng)),
		WK:    tensor.NewParam(name+".WK", tensor.NewXavier(dim, dim, rng)),
		WV:    tensor.NewParam(name+".WV", tensor.NewXavier(dim, dim, rng)),
		WO:    tensor.NewParam(name+".WO", tensor.NewXavier(dim, dim, rng)),
		Heads: heads,
		Mask:  mask,
	}
}

// Forward computes MH(E) over one L x dim sequence under mask, the
// L x L additive mask BuildMask(a.Mask, L) returns (built once by the
// caller and shared by every block).
func (a *MultiHeadAttention) Forward(tp *tensor.Tape, e *tensor.Node, mask *tensor.Matrix) *tensor.Node {
	dim := a.WQ.Value.Rows
	dk := dim / a.Heads
	maskN := tp.Const(mask)

	q := tp.MatMul(e, tp.Param(a.WQ))
	k := tp.MatMul(e, tp.Param(a.WK))
	v := tp.MatMul(e, tp.Param(a.WV))

	// Eq. 3 scales by √h (the full hidden dimension), per the paper.
	scale := 1 / math.Sqrt(float64(dim))

	if a.Capture {
		a.lastWeights = a.lastWeights[:0]
	}
	headsOut := make([]*tensor.Node, a.Heads)
	for hIdx := 0; hIdx < a.Heads; hIdx++ {
		lo, hi := hIdx*dk, (hIdx+1)*dk
		qh := tp.SliceCols(q, lo, hi)
		kh := tp.SliceCols(k, lo, hi)
		vh := tp.SliceCols(v, lo, hi)
		scores := tp.Add(tp.Scale(tp.MatMulNT(qh, kh), scale), maskN)
		weights := tp.SoftmaxRows(scores)
		if a.Capture {
			a.lastWeights = append(a.lastWeights, weights.Value.Clone())
		}
		headsOut[hIdx] = tp.MatMul(weights, vh)
	}
	return tp.MatMul(tp.ConcatCols(headsOut...), tp.Param(a.WO))
}

// LastWeights returns the attention weights (one L x L matrix per head)
// from the most recent Forward call with Capture enabled; nil otherwise.
func (a *MultiHeadAttention) LastWeights() []*tensor.Matrix { return a.lastWeights }

// Params implements Module.
func (a *MultiHeadAttention) Params() []*tensor.Param {
	return []*tensor.Param{a.WQ, a.WK, a.WV, a.WO}
}
