package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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

// LayerNorm holds Eq. 6's parameters: LN(x) = g/√(σ²+ε) ⊙ (x-μ) + b
// per row.
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

// Params implements Module.
func (l *LayerNorm) Params() []*tensor.Param { return []*tensor.Param{l.Gain, l.Bias} }

// NormState is what LayerNorm.Forward keeps for Backward — the
// standardized rows x̂ and their inverse deviations 1/√(σ²+ε) — plus
// Backward's one-row scratch. A caller keeps one per layer and reuses
// it.
type NormState struct {
	xhat *tensor.Matrix
	inv  []float64
	gn   []float64 // one row's x̂ gradient
}

// Forward is Eq. 6 row by row, out = g ⊙ x̂ + b with
// x̂ = (a-μ)/√(σ²+ε), recording st for Backward.
func (l *LayerNorm) Forward(st *NormState, out, a *tensor.Matrix) {
	st.xhat = tensor.Resize(st.xhat, a.Rows, a.Cols)
	st.inv = slices.Grow(st.inv[:0], a.Rows)[:a.Rows]
	gain, bias := l.Gain.Value.Data, l.Bias.Value.Data
	for r := 0; r < a.Rows; r++ {
		xr, or := st.xhat.Row(r), out.Row(r)
		st.inv[r] = tensor.StandardizeRow(xr, a.Row(r), l.Eps)
		for c, xh := range xr {
			or[c] = float64(xh*gain[c]) + bias[c]
		}
	}
}

// Backward takes g, the gradient of Forward's output: it adds the bias's
// and gain's gradients to gr and writes the gradient of Forward's input
// into da.
func (l *LayerNorm) Backward(st *NormState, da, g *tensor.Matrix, gr *Grads) {
	gr.AddCols(l.Bias, g, nil)
	gr.AddCols(l.Gain, g, st.xhat)
	st.gn = slices.Grow(st.gn[:0], g.Cols)[:g.Cols]
	gain := l.Gain.Value.Data
	for r := 0; r < g.Rows; r++ {
		for c, v := range g.Row(r) {
			st.gn[c] = v * gain[c]
		}
		tensor.StandardizeRowBackward(da.Row(r), st.gn, st.xhat.Row(r), st.inv[r])
	}
}

// FeedForward holds Eq. 7's parameters: FFN(x) = max(0, x·W1 + b1)·W2 +
// b2, applied point-wise to every position.
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

// Params implements Module.
func (f *FeedForward) Params() []*tensor.Param { return CollectParams(f.L1, f.L2) }

// FFNState is what FeedForward.Forward keeps for Backward — its input
// and the hidden layer's pre- and post-ReLU activations — plus
// Backward's scratch. A caller keeps one per layer and reuses it.
type FFNState struct {
	x, pre, hid *tensor.Matrix // x is the caller's input
	gh          *tensor.Matrix // the hidden layer's gradient
}

// Forward computes Eq. 7 into out for every row of x, recording st for
// Backward.
func (f *FeedForward) Forward(st *FFNState, out, x *tensor.Matrix) {
	inner := f.L1.W.Value.Cols
	st.x = x
	st.pre, st.hid = tensor.Resize(st.pre, x.Rows, inner), tensor.Resize(st.hid, x.Rows, inner)
	st.gh = tensor.Resize(st.gh, x.Rows, inner)
	tensor.MatMulInto(st.pre, x, f.L1.W.Value)
	b1, b2 := f.L1.B.Value.Data, f.L2.B.Value.Data
	for r := 0; r < st.pre.Rows; r++ {
		pre, hid := st.pre.Row(r), st.hid.Row(r)
		for c := range pre {
			pre[c] += b1[c]
			hid[c] = math.Max(0, pre[c])
		}
	}
	tensor.MatMulInto(out, st.hid, f.L2.W.Value)
	for i, v := range out.Data {
		out.Data[i] = v + b2[i%len(b2)]
	}
}

// Backward takes gout, the gradient of Forward's output, through both
// layers and the ReLU: it adds the weights' and biases' gradients to gr
// and x's gradient into gx.
func (f *FeedForward) Backward(st *FFNState, gx, gout *tensor.Matrix, gr *Grads) {
	gr.AddCols(f.L2.B, gout, nil)
	st.gh.Zero()
	tensor.AddMatMulTransposeB(st.gh, gout, f.L2.W.Value)
	gr.AddWeight(f.L2.W, st.hid, gout)
	for c, v := range st.pre.Data {
		if v <= 0 {
			st.gh.Data[c] = 0
		}
	}
	gr.AddCols(f.L1.B, st.gh, nil)
	tensor.AddMatMulTransposeB(gx, st.gh, f.L1.W.Value)
	gr.AddWeight(f.L1.W, st.x, st.gh)
}

func mustDivide(h, m int) int {
	if m <= 0 || h%m != 0 {
		panic(fmt.Sprintf("nn: hidden dim %d not divisible by %d heads", h, m))
	}
	return h / m
}
