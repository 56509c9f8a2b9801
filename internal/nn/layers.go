package nn

import (
	"fmt"
	"math/rand"

	"github.com/ucad/ucad/internal/tensor"
)

// Linear is a fully-connected layer y = x·W + b.
type Linear struct {
	W, B *tensor.Param
}

// NewLinear creates a Linear layer with Xavier-initialized weights.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		W: tensor.NewParam(name+".W", tensor.NewXavier(in, out, rng)),
		B: tensor.NewParam(name+".B", tensor.NewMatrix(1, out)),
	}
}

// Forward applies the layer to x (rows are positions).
func (l *Linear) Forward(tp *tensor.Tape, x *tensor.Node) *tensor.Node {
	return tp.AddRowVec(tp.MatMul(x, tp.Param(l.W)), tp.Param(l.B))
}

// Params implements Module.
func (l *Linear) Params() []*tensor.Param { return []*tensor.Param{l.W, l.B} }

// Embedding is the paper's order-free embedding layer (§4.2, Eq. 1): a
// learnable matrix M ∈ R^{n×h} indexed by operation key. Key PadKey (k0)
// maps to a constant zero vector for padding and unseen operations.
type Embedding struct {
	Table *tensor.Param
	// PadKey is the reserved key whose embedding is the constant zero
	// vector (the paper's k0).
	PadKey int
}

// NewEmbedding creates an embedding for vocab keys of dimension dim.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{
		Table:  tensor.NewParam(name+".M", tensor.NewRandN(vocab, dim, 0.1, rng)),
		PadKey: 0,
	}
}

// Lookup embeds a key sequence into an L x dim matrix. Keys equal to
// PadKey or outside the vocabulary embed to the zero vector (no
// gradient), matching the paper's treatment of new operations appearing
// during detection.
func (e *Embedding) Lookup(tp *tensor.Tape, keys []int) *tensor.Node {
	idx := make([]int, len(keys))
	for i, k := range keys {
		if k == e.PadKey || k < 0 || k >= e.Table.Value.Rows {
			idx[i] = -1
		} else {
			idx[i] = k
		}
	}
	return tp.GatherRows(tp.Param(e.Table), idx)
}

// Params implements Module.
func (e *Embedding) Params() []*tensor.Param { return []*tensor.Param{e.Table} }

// LayerNorm implements Eq. 6: LN(x) = g/√(σ²+ε) ⊙ (x-μ) + b per row.
type LayerNorm struct {
	Gain, Bias *tensor.Param
	Eps        float64
}

// NewLayerNorm creates a LayerNorm over rows of width dim.
func NewLayerNorm(name string, dim int) *LayerNorm {
	g := tensor.NewMatrix(1, dim)
	g.Fill(1)
	return &LayerNorm{
		Gain: tensor.NewParam(name+".g", g),
		Bias: tensor.NewParam(name+".b", tensor.NewMatrix(1, dim)),
		Eps:  1e-5,
	}
}

// Forward normalizes each row of x.
func (l *LayerNorm) Forward(tp *tensor.Tape, x *tensor.Node) *tensor.Node {
	return tp.AddRowVec(tp.MulRowVec(tp.NormalizeRows(x, l.Eps), tp.Param(l.Gain)), tp.Param(l.Bias))
}

// Params implements Module.
func (l *LayerNorm) Params() []*tensor.Param { return []*tensor.Param{l.Gain, l.Bias} }

// FeedForward is Eq. 7: FFN(x) = max(0, x·W1 + b1)·W2 + b2, applied
// point-wise to every position.
type FeedForward struct {
	L1, L2 *Linear
}

// NewFeedForward creates the two-layer point-wise MLP with hidden width
// inner (the paper uses inner = h).
func NewFeedForward(name string, dim, inner int, rng *rand.Rand) *FeedForward {
	return &FeedForward{
		L1: NewLinear(name+".l1", dim, inner, rng),
		L2: NewLinear(name+".l2", inner, dim, rng),
	}
}

// Forward applies the MLP to every row of x.
func (f *FeedForward) Forward(tp *tensor.Tape, x *tensor.Node) *tensor.Node {
	return f.L2.Forward(tp, tp.ReLU(f.L1.Forward(tp, x)))
}

// Params implements Module.
func (f *FeedForward) Params() []*tensor.Param { return CollectParams(f.L1, f.L2) }

// Residual applies Eq. 5's regularization around a sub-layer output:
// Reg(x) = LN(x + Dropout(f(x))).
func Residual(tp *tensor.Tape, ln *LayerNorm, x, fx *tensor.Node, dropout float64, train bool, rng *rand.Rand) *tensor.Node {
	return ln.Forward(tp, tp.Add(x, tp.Dropout(fx, dropout, train, rng)))
}

func mustDivide(h, m int) int {
	if m <= 0 || h%m != 0 {
		panic(fmt.Sprintf("nn: hidden dim %d not divisible by %d heads", h, m))
	}
	return h / m
}
