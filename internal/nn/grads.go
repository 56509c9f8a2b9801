package nn

import "github.com/ucad/ucad/internal/tensor"

// Grads is where the layers' backward passes add parameter gradients:
// one buffer per parameter. Each weight, bias or gain gradient is added
// straight into the parameter's buffer, term by term in row order.
type Grads struct {
	bufs map[*tensor.Param]*tensor.Matrix
}

// NewGrads pairs params[i] with the buffer bufs[i].
func NewGrads(params []*tensor.Param, bufs []*tensor.Matrix) *Grads {
	g := &Grads{bufs: make(map[*tensor.Param]*tensor.Matrix, len(params))}
	for i, p := range params {
		g.bufs[p] = bufs[i]
	}
	return g
}

// ParamGrads pairs every parameter with its own Grad, the buffer an
// optimizer steps on.
func ParamGrads(params []*tensor.Param) *Grads {
	bufs := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		bufs[i] = p.Grad
	}
	return NewGrads(params, bufs)
}

// Of returns p's buffer.
func (g *Grads) Of(p *tensor.Param) *tensor.Matrix { return g.bufs[p] }

// AddWeight adds aᵀ·gout — the gradient of weight p from its input a
// and its output's gradient gout — into p's buffer.
func (g *Grads) AddWeight(p *tensor.Param, a, gout *tensor.Matrix) {
	tensor.AddMatMulTransposeA(g.bufs[p], a, gout)
}

// AddCols adds Σ_r gout[r] — a row-broadcast bias's gradient — or,
// given x, Σ_r gout[r] ⊙ x[r] — a gain's — into p's buffer.
func (g *Grads) AddCols(p *tensor.Param, gout, x *tensor.Matrix) {
	buf := g.bufs[p].Data
	for i, v := range gout.Data {
		if x != nil {
			v *= x.Data[i]
		}
		buf[i%gout.Cols] += v
	}
}
