package tensor

import "math"

// binary applies an elementwise op with per-element partial derivatives.
func (t *Tape) binary(a, b *Node, f func(x, y float64) float64,
	dfa func(x, y float64) float64, dfb func(x, y float64) float64) *Node {
	checkSameTape(t, a, b)
	checkShape(a.Value.SameShape(b.Value), "elementwise shape %dx%d vs %dx%d",
		a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols)
	out := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i := range out.Data {
		out.Data[i] = f(a.Value.Data[i], b.Value.Data[i])
	}
	n := t.node(out, a.requiresGrad || b.requiresGrad, nil)
	n.back = func() {
		if a.requiresGrad {
			ensureGrad(a)
			for i, g := range n.Grad.Data {
				a.Grad.Data[i] += g * dfa(a.Value.Data[i], b.Value.Data[i])
			}
		}
		if b.requiresGrad {
			ensureGrad(b)
			for i, g := range n.Grad.Data {
				b.Grad.Data[i] += g * dfb(a.Value.Data[i], b.Value.Data[i])
			}
		}
	}
	return n
}

// unary applies an elementwise op whose derivative is expressed in terms
// of the input x and the output y.
func (t *Tape) unary(a *Node, f func(x float64) float64, df func(x, y float64) float64) *Node {
	checkSameTape(t, a)
	out := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		out.Data[i] = f(x)
	}
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		for i, g := range n.Grad.Data {
			a.Grad.Data[i] += g * df(a.Value.Data[i], out.Data[i])
		}
	}
	return n
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	return t.binary(a, b,
		func(x, y float64) float64 { return x + y },
		func(x, y float64) float64 { return 1 },
		func(x, y float64) float64 { return 1 })
}

// Sub returns a - b (same shape).
func (t *Tape) Sub(a, b *Node) *Node {
	return t.binary(a, b,
		func(x, y float64) float64 { return x - y },
		func(x, y float64) float64 { return 1 },
		func(x, y float64) float64 { return -1 })
}

// Mul returns the Hadamard product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	return t.binary(a, b,
		func(x, y float64) float64 { return x * y },
		func(x, y float64) float64 { return y },
		func(x, y float64) float64 { return x })
}

// Scale returns s·a for a constant scalar s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	return t.unary(a,
		func(x float64) float64 { return s * x },
		func(x, y float64) float64 { return s })
}

// ReLU returns max(0, a) elementwise (Eq. 7's activation).
func (t *Tape) ReLU(a *Node) *Node {
	return t.unary(a,
		func(x float64) float64 { return math.Max(0, x) },
		func(x, y float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// Sigmoid returns 1/(1+e^-a) elementwise (Eq. 10's squashing).
func (t *Tape) Sigmoid(a *Node) *Node {
	return t.unary(a,
		func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		func(x, y float64) float64 { return y * (1 - y) })
}

// Tanh returns tanh(a) elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	return t.unary(a, math.Tanh,
		func(x, y float64) float64 { return 1 - y*y })
}

// Square returns a² elementwise.
func (t *Tape) Square(a *Node) *Node {
	return t.unary(a,
		func(x float64) float64 { return x * x },
		func(x, y float64) float64 { return 2 * x })
}

// AddRowVec broadcasts the 1 x Cols vector v over the rows of a.
func (t *Tape) AddRowVec(a, v *Node) *Node {
	checkSameTape(t, a, v)
	checkShape(v.Value.Rows == 1 && v.Value.Cols == a.Value.Cols,
		"row-vector broadcast %dx%d onto %dx%d", v.Value.Rows, v.Value.Cols, a.Value.Rows, a.Value.Cols)
	out := NewMatrix(a.Value.Rows, a.Value.Cols)
	for r := 0; r < a.Value.Rows; r++ {
		ar := a.Value.Row(r)
		or := out.Row(r)
		for c, x := range ar {
			or[c] = x + v.Value.Data[c]
		}
	}
	n := t.node(out, a.requiresGrad || v.requiresGrad, nil)
	n.back = func() {
		if a.requiresGrad {
			ensureGrad(a)
			for i, g := range n.Grad.Data {
				a.Grad.Data[i] += g
			}
		}
		if v.requiresGrad {
			ensureGrad(v)
			for r := 0; r < out.Rows; r++ {
				gr := n.Grad.Row(r)
				for c, g := range gr {
					v.Grad.Data[c] += g
				}
			}
		}
	}
	return n
}
