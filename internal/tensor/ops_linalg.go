package tensor

// MatMul returns a·b with gradients to both operands.
func (t *Tape) MatMul(a, b *Node) *Node {
	checkSameTape(t, a, b)
	checkShape(a.Value.Cols == b.Value.Rows, "matmul shape (%dx%d)·(%dx%d)",
		a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols)
	out := NewMatrix(a.Value.Rows, b.Value.Cols)
	MatMulInto(out, a.Value, b.Value)
	n := t.node(out, a.requiresGrad || b.requiresGrad, nil)
	n.back = func() {
		if a.requiresGrad {
			ensureGrad(a)
			AddMatMulTransposeB(a.Grad, n.Grad, b.Value) // dA += dOut·Bᵀ
		}
		if b.requiresGrad {
			ensureGrad(b)
			AddMatMulTransposeA(b.Grad, a.Value, n.Grad) // dB += Aᵀ·dOut
		}
	}
	return n
}

// GatherRows selects rows idx[i] of a into row i of the output. Used for
// embedding lookup; gradients scatter-add back into the gathered rows.
// Negative indices produce a zero row with no gradient (the paper's k0
// padding / unknown-key convention).
func (t *Tape) GatherRows(a *Node, idx []int) *Node {
	checkSameTape(t, a)
	out := NewMatrix(len(idx), a.Value.Cols)
	for i, id := range idx {
		if id < 0 {
			continue // zero row
		}
		checkShape(id < a.Value.Rows, "gather index %d out of %d rows", id, a.Value.Rows)
		copy(out.Row(i), a.Value.Row(id))
	}
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		for i, id := range idx {
			if id < 0 {
				continue
			}
			dst := a.Grad.Row(id)
			src := n.Grad.Row(i)
			for j, g := range src {
				dst[j] += g
			}
		}
	}
	return n
}

// SliceCols returns columns [from, to) of a.
func (t *Tape) SliceCols(a *Node, from, to int) *Node {
	checkSameTape(t, a)
	checkShape(0 <= from && from <= to && to <= a.Value.Cols, "slice [%d:%d) of %d cols", from, to, a.Value.Cols)
	rows, width := a.Value.Rows, to-from
	out := NewMatrix(rows, width)
	for r := 0; r < rows; r++ {
		copy(out.Row(r), a.Value.Row(r)[from:to])
	}
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		for r := 0; r < rows; r++ {
			dst := a.Grad.Row(r)[from:to]
			for j, g := range n.Grad.Row(r) {
				dst[j] += g
			}
		}
	}
	return n
}
