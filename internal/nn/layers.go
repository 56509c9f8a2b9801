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

// Forward writes x·W + b into out, for every row (position) of x.
func (l *Linear) Forward(out, x *tensor.Matrix) {
	tensor.MatMulInto(out, x, l.W.Value)
	b := l.B.Value.Data
	for i, v := range out.Data {
		out.Data[i] = v + b[i%len(b)]
	}
}

// Backward takes gout, the gradient of Forward's output for input x:
// it adds W's and b's gradients to gr (none for a nil gr: the layer is
// held fixed) and, unless gx is nil, x's gradient into gx.
func (l *Linear) Backward(gx, x, gout *tensor.Matrix, gr *Grads) {
	if gr != nil {
		gr.AddCols(l.B, gout, nil)
		gr.AddWeight(l.W, x, gout)
	}
	if gx != nil {
		tensor.AddMatMulTransposeB(gx, gout, l.W.Value)
	}
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

// Forward copies the embedding of keys[i] into row i of out. Keys
// equal to PadKey or outside the vocabulary embed to the zero vector
// (and take no gradient), matching the paper's treatment of new
// operations appearing during detection.
func (e *Embedding) Forward(out *tensor.Matrix, keys []int) {
	for i, k := range keys {
		row := out.Row(i)
		clear(row)
		if e.known(k) {
			copy(row, e.Table.Value.Row(k))
		}
	}
}

// Backward adds row i of g, the gradient of Forward's output, into the
// table row of keys[i], last row first: each read's gradient lands in
// the row it touched and nowhere else.
func (e *Embedding) Backward(gr *Grads, keys []int, g *tensor.Matrix) {
	table := gr.Of(e.Table)
	for i := len(keys) - 1; i >= 0; i-- {
		if k := keys[i]; e.known(k) {
			dst := table.Row(k)
			for c, v := range g.Row(i) {
				dst[c] += v
			}
		}
	}
}

// known reports whether key k has a learned (non-zero) embedding row.
func (e *Embedding) known(k int) bool {
	return k != e.PadKey && k >= 0 && k < e.Table.Value.Rows
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
// b2, applied point-wise to every position. USAD's encoder and decoders
// are the same Linear-ReLU-Linear block with widths of their own.
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
	f.L1.Forward(st.pre, x)
	for i, v := range st.pre.Data {
		st.hid.Data[i] = math.Max(0, v)
	}
	f.L2.Forward(out, st.hid)
}

// Backward takes gout, the gradient of Forward's output, through both
// layers and the ReLU: it adds the weights' and biases' gradients to gr
// (none for a nil gr) and, unless gx is nil, x's gradient into gx.
func (f *FeedForward) Backward(st *FFNState, gx, gout *tensor.Matrix, gr *Grads) {
	st.gh.Zero()
	f.L2.Backward(st.gh, st.hid, gout, gr)
	for c, v := range st.pre.Data {
		if v <= 0 {
			st.gh.Data[c] = 0
		}
	}
	f.L1.Backward(gx, st.x, st.gh, gr)
}

func mustDivide(h, m int) int {
	if m <= 0 || h%m != 0 {
		panic(fmt.Sprintf("nn: hidden dim %d not divisible by %d heads", h, m))
	}
	return h / m
}
