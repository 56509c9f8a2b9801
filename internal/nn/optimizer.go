package nn

import (
	"math"

	"github.com/ucad/ucad/internal/tensor"
)

// SGD is stochastic gradient descent with optional momentum, the
// optimizer the paper names for training Trans-DAS (§5.2).
//
// Step is agnostic to how p.Grad was produced: one backward pass or an
// externally reduced sum over data-parallel workers (see
// AccumulateGrads) — it consumes whatever gradient is accumulated and
// zeroes it. Callers that shard a mini-batch across
// workers therefore reduce first and call Step exactly once per batch.
type SGD struct {
	LR       float64
	Momentum float64

	velocity map[*tensor.Param][]float64
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*tensor.Param][]float64)}
}

// Step applies one update and zeroes the gradients.
func (o *SGD) Step(params []*tensor.Param) {
	for _, p := range params {
		if o.Momentum == 0 {
			for i, g := range p.Grad.Data {
				p.Value.Data[i] -= o.LR * g
			}
		} else {
			v := o.velocity[p]
			if v == nil {
				v = make([]float64, len(p.Value.Data))
				o.velocity[p] = v
			}
			for i, g := range p.Grad.Data {
				v[i] = o.Momentum*v[i] + g
				p.Value.Data[i] -= o.LR * v[i]
			}
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer (Kingma & Ba); used for the DeepLog and
// USAD baselines where plain SGD converges too slowly for CI budgets.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*tensor.Param][]float64
	v map[*tensor.Param][]float64
}

// NewAdam returns an Adam optimizer with standard moment coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*tensor.Param][]float64),
		v: make(map[*tensor.Param][]float64),
	}
}

// Step applies one update and zeroes the gradients.
func (o *Adam) Step(params []*tensor.Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = make([]float64, len(p.Value.Data))
			v = make([]float64, len(p.Value.Data))
			o.m[p], o.v[p] = m, v
		}
		for i, g := range p.Grad.Data {
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			p.Value.Data[i] -= o.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + o.Eps)
		}
		p.ZeroGrad()
	}
}
