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

// ConcatCols concatenates nodes side by side (equal row counts).
func (t *Tape) ConcatCols(parts ...*Node) *Node {
	checkSameTape(t, parts...)
	checkShape(len(parts) > 0, "concat of zero parts")
	rows := parts[0].Value.Rows
	total := 0
	req := false
	for _, p := range parts {
		checkShape(p.Value.Rows == rows, "concat row mismatch %d vs %d", p.Value.Rows, rows)
		total += p.Value.Cols
		req = req || p.requiresGrad
	}
	out := NewMatrix(rows, total)
	off := 0
	for _, p := range parts {
		for r := 0; r < rows; r++ {
			copy(out.Data[r*total+off:r*total+off+p.Value.Cols], p.Value.Row(r))
		}
		off += p.Value.Cols
	}
	n := t.node(out, req, nil)
	n.back = func() {
		off := 0
		for _, p := range parts {
			if p.requiresGrad {
				ensureGrad(p)
				for r := 0; r < rows; r++ {
					dst := p.Grad.Row(r)
					src := n.Grad.Data[r*total+off : r*total+off+p.Value.Cols]
					for j, g := range src {
						dst[j] += g
					}
				}
			}
			off += p.Value.Cols
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

// SliceRows returns rows [from, to) of a.
func (t *Tape) SliceRows(a *Node, from, to int) *Node {
	checkSameTape(t, a)
	checkShape(0 <= from && from <= to && to <= a.Value.Rows, "slice rows [%d:%d) of %d", from, to, a.Value.Rows)
	rows, cols := to-from, a.Value.Cols
	out := NewMatrix(rows, cols)
	copy(out.Data, a.Value.Data[from*cols:to*cols])
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		dst := a.Grad.Data[from*cols : to*cols]
		for i, g := range n.Grad.Data {
			dst[i] += g
		}
	}
	return n
}
