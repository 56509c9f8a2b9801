package nn

import (
	"math"
	"math/rand"

	"github.com/ucad/ucad/internal/tensor"
)

// LSTMCell is a standard long short-term memory cell. It exists to
// implement the DeepLog baseline faithfully (DeepLog stacks LSTM layers
// over log-key sequences and predicts the next key). Its passes round
// every product before adding it (the float64 conversions), so
// platforms that fuse multiply-adds round as amd64 does.
type LSTMCell struct {
	// Wx maps input (in) to the four gates (4*hidden); Wh maps the
	// previous hidden state; B is the gate bias. Gate order: i, f, g, o.
	Wx, Wh, B *tensor.Param
	Hidden    int
}

// NewLSTMCell creates a cell with the given input and hidden sizes. The
// forget-gate bias is initialized to 1, the usual trick for stable
// early training.
func NewLSTMCell(name string, in, hidden int, rng *rand.Rand) *LSTMCell {
	b := tensor.NewMatrix(1, 4*hidden)
	for i := hidden; i < 2*hidden; i++ {
		b.Data[i] = 1
	}
	return &LSTMCell{
		Wx:     tensor.NewParam(name+".Wx", tensor.NewXavier(in, 4*hidden, rng)),
		Wh:     tensor.NewParam(name+".Wh", tensor.NewXavier(hidden, 4*hidden, rng)),
		B:      tensor.NewParam(name+".B", b),
		Hidden: hidden,
	}
}

// LSTMState is what LSTMCell.Forward keeps for Backward — the input
// rows, every step's gates after their squashing, its cell state c,
// tanh(c) and hidden state h — plus Backward's scratch. A caller keeps
// one per cell and reuses it.
type LSTMState struct {
	x      *tensor.Matrix // the caller's input, one row per step
	gates  *tensor.Matrix // T x 4·hidden: i, f, g, o
	c, h   *tensor.Matrix // (T+1) x hidden, row 0 the zero initial state
	tc     *tensor.Matrix // T x hidden: tanh(c)
	hw, dg *tensor.Matrix // one step's h·Wh and its gates' gradient
	dh, dc *tensor.Matrix // the running gradients of h and c
}

// Forward runs the cell over the rows of x, one timestep per row, from
// the zero state, recording st for Backward. It returns the last hidden
// state (1 x hidden; the zero state when x has no rows), a view into st.
func (l *LSTMCell) Forward(st *LSTMState, x *tensor.Matrix) *tensor.Matrix {
	T, hd := x.Rows, l.Hidden
	st.x = x
	st.gates = tensor.Resize(st.gates, T, 4*hd)
	st.c, st.h = tensor.Resize(st.c, T+1, hd), tensor.Resize(st.h, T+1, hd)
	st.tc, st.hw = tensor.Resize(st.tc, T, hd), tensor.Resize(st.hw, 1, 4*hd)
	clear(st.c.Row(0))
	clear(st.h.Row(0))
	tensor.MatMulInto(st.gates, x, l.Wx.Value)
	b := l.B.Value.Data
	for t := 0; t < T; t++ {
		tensor.MatMulInto(st.hw, tensor.SliceRows(st.h, t, t+1), l.Wh.Value)
		gt := st.gates.Row(t)
		for j, v := range st.hw.Data {
			gt[j] = gt[j] + v + b[j]
			if j < 2*hd || j >= 3*hd {
				gt[j] = 1 / (1 + math.Exp(-gt[j]))
			} else {
				gt[j] = math.Tanh(gt[j])
			}
		}
		cPrev, c, tc, h := st.c.Row(t), st.c.Row(t+1), st.tc.Row(t), st.h.Row(t+1)
		for j := range c {
			i, f, g, o := gt[j], gt[hd+j], gt[2*hd+j], gt[3*hd+j]
			c[j] = float64(f*cPrev[j]) + float64(i*g)
			tc[j] = math.Tanh(c[j])
			h[j] = o * tc[j]
		}
	}
	return tensor.SliceRows(st.h, T, T+1)
}

// Backward takes gh, the gradient of Forward's last hidden state, back
// through time, last step first: it adds each step's Wx, Wh and B
// gradients to gr and the gradient of x's rows into gx.
func (l *LSTMCell) Backward(st *LSTMState, gx, gh *tensor.Matrix, gr *Grads) {
	hd := l.Hidden
	st.dh, st.dc = tensor.Resize(st.dh, 1, hd), tensor.Resize(st.dc, 1, hd)
	st.dg = tensor.Resize(st.dg, 1, 4*hd)
	copy(st.dh.Data, gh.Data)
	st.dc.Zero()
	dg := st.dg
	for t := st.x.Rows - 1; t >= 0; t-- {
		gt, cPrev, tc := st.gates.Row(t), st.c.Row(t), st.tc.Row(t)
		for j, dh := range st.dh.Data {
			i, f, g, o := gt[j], gt[hd+j], gt[2*hd+j], gt[3*hd+j]
			// c feeds the next step's f ⊙ c (its gradient is already in
			// dc) and this step's tanh.
			dc := st.dc.Data[j] + float64(dh*o*(1-float64(tc[j]*tc[j])))
			st.dc.Data[j] = dc * f
			dg.Data[j] = dc * g * (i * (1 - i))
			dg.Data[hd+j] = dc * cPrev[j] * (f * (1 - f))
			dg.Data[2*hd+j] = dc * i * (1 - float64(g*g))
			dg.Data[3*hd+j] = dh * tc[j] * (o * (1 - o))
		}
		gr.AddCols(l.B, dg, nil)
		st.dh.Zero()
		tensor.AddMatMulTransposeB(st.dh, dg, l.Wh.Value)
		gr.AddWeight(l.Wh, tensor.SliceRows(st.h, t, t+1), dg)
		tensor.AddMatMulTransposeB(tensor.SliceRows(gx, t, t+1), dg, l.Wx.Value)
		gr.AddWeight(l.Wx, tensor.SliceRows(st.x, t, t+1), dg)
	}
}

// Params implements Module.
func (l *LSTMCell) Params() []*tensor.Param { return []*tensor.Param{l.Wx, l.Wh, l.B} }
