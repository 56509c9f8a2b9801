package tensor

import "math"

// Sum reduces a to a 1x1 scalar node.
func (t *Tape) Sum(a *Node) *Node {
	checkSameTape(t, a)
	var s float64
	for _, x := range a.Value.Data {
		s += x
	}
	out := FromSlice(1, 1, []float64{s})
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		g := n.Grad.Data[0]
		for i := range a.Grad.Data {
			a.Grad.Data[i] += g
		}
	}
	return n
}

// Mean reduces a to its scalar mean.
func (t *Tape) Mean(a *Node) *Node {
	return t.Scale(t.Sum(a), 1/float64(len(a.Value.Data)))
}

// SumRows reduces each row of a to one value, producing a Rows x 1 node.
func (t *Tape) SumRows(a *Node) *Node {
	checkSameTape(t, a)
	out := NewMatrix(a.Value.Rows, 1)
	for r := 0; r < a.Value.Rows; r++ {
		var s float64
		for _, x := range a.Value.Row(r) {
			s += x
		}
		out.Data[r] = s
	}
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		for r := 0; r < a.Value.Rows; r++ {
			g := n.Grad.Data[r]
			dst := a.Grad.Row(r)
			for c := range dst {
				dst[c] += g
			}
		}
	}
	return n
}

// RowDot returns the per-row inner product of a and b as a Rows x 1 node.
// This is the similarity primitive of Eq. 10 before the sigmoid.
func (t *Tape) RowDot(a, b *Node) *Node {
	return t.SumRows(t.Mul(a, b))
}

// SoftmaxRows applies a numerically-stable softmax along each row
// (Eq. 3's weight normalization).
func (t *Tape) SoftmaxRows(a *Node) *Node {
	checkSameTape(t, a)
	out := NewMatrix(a.Value.Rows, a.Value.Cols)
	for r := 0; r < a.Value.Rows; r++ {
		SoftmaxInto(out.Row(r), a.Value.Row(r))
	}
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		for r := 0; r < out.Rows; r++ {
			y := out.Row(r)
			g := n.Grad.Row(r)
			var dot float64
			for c := range y {
				dot += g[c] * y[c]
			}
			dst := a.Grad.Row(r)
			for c := range y {
				dst[c] += y[c] * (g[c] - dot)
			}
		}
	}
	return n
}

// SoftmaxInto writes a numerically-stable softmax(src) into dst (which
// may alias src): the tape's SoftmaxRows row by row, and the float64
// scoring kernel's attention rows (the float32 kernel's is
// SoftmaxInto32). The exponential runs in float64 whatever T is, so a
// masked term's exp(-1e9 - max) underflows to exactly 0.
func SoftmaxInto[T Float](dst, src []T) {
	maxv := T(math.Inf(-1))
	for _, x := range src {
		if x > maxv {
			maxv = x
		}
	}
	var sum T
	for i, x := range src {
		e := T(math.Exp(float64(x - maxv)))
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// NormalizeRows standardizes each row to zero mean and unit variance
// (the (x-μ)/√(σ²+ε) core of Eq. 6); gain and bias are applied by the
// caller via MulRowVec / AddRowVec.
func (t *Tape) NormalizeRows(a *Node, eps float64) *Node {
	checkSameTape(t, a)
	rows, cols := a.Value.Rows, a.Value.Cols
	out := NewMatrix(rows, cols)
	invStd := make([]float64, rows)
	for r := 0; r < rows; r++ {
		src := a.Value.Row(r)
		var mu float64
		for _, x := range src {
			mu += x
		}
		mu /= float64(cols)
		var v float64
		for _, x := range src {
			d := x - mu
			v += d * d
		}
		v /= float64(cols)
		inv := 1 / math.Sqrt(v+eps)
		invStd[r] = inv
		dst := out.Row(r)
		for c, x := range src {
			dst[c] = (x - mu) * inv
		}
	}
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		nf := float64(cols)
		for r := 0; r < rows; r++ {
			xhat := out.Row(r)
			g := n.Grad.Row(r)
			var sumG, sumGX float64
			for c := range g {
				sumG += g[c]
				sumGX += g[c] * xhat[c]
			}
			dst := a.Grad.Row(r)
			inv := invStd[r]
			for c := range g {
				dst[c] += inv * (g[c] - sumG/nf - xhat[c]*sumGX/nf)
			}
		}
	}
	return n
}

// CrossEntropyMean computes mean over positions of -log softmax(logits)[target].
// Positions with target < 0 are ignored (padding). This fused op is used
// by the DeepLog and base-transformer training objectives.
func (t *Tape) CrossEntropyMean(logits *Node, targets []int) *Node {
	checkSameTape(t, logits)
	checkShape(len(targets) == logits.Value.Rows, "cross-entropy targets %d vs rows %d",
		len(targets), logits.Value.Rows)
	probs := NewMatrix(logits.Value.Rows, logits.Value.Cols)
	var loss float64
	count := 0
	for r, tgt := range targets {
		SoftmaxInto(probs.Row(r), logits.Value.Row(r))
		if tgt < 0 {
			continue
		}
		checkShape(tgt < logits.Value.Cols, "cross-entropy target %d out of %d classes", tgt, logits.Value.Cols)
		loss -= math.Log(math.Max(probs.At(r, tgt), 1e-12))
		count++
	}
	if count > 0 {
		loss /= float64(count)
	}
	out := FromSlice(1, 1, []float64{loss})
	n := t.node(out, logits.requiresGrad, nil)
	n.back = func() {
		if !logits.requiresGrad || count == 0 {
			return
		}
		ensureGrad(logits)
		g := n.Grad.Data[0] / float64(count)
		for r, tgt := range targets {
			if tgt < 0 {
				continue
			}
			dst := logits.Grad.Row(r)
			p := probs.Row(r)
			for c := range dst {
				dst[c] += g * p[c]
			}
			dst[tgt] -= g
		}
	}
	return n
}
