//go:build amd64

package tensor

// The row kernels on amd64. MatMulInto and MatMulInto32 run gemv4d and
// gemv4 under their shared row driver; the other float64 matmul
// primitives below pass each output row through a packed-SSE2 kernel
// over k-quartets, then a scalar k-tail in the same order. Scratch rows
// live on the stack (the kernels do not let them escape), so the
// primitives allocate nothing; a shape past the scratch takes the
// portable loop.

// rowCap bounds a dot-product row's scratch; tCap the transposed
// operand of AddMatMulTransposeB (small operands use a rowCap-sized
// one, which is cheaper to clear).
const rowCap, tCap = 256, 4096

func addMatMul(dst, a, b *Matrix) {
	if b.Cols > rowCap {
		addMatMulGeneric(dst, a, b)
		return
	}
	var s [rowCap]float64
	dotRows(dst, a, b.Data, s[:b.Cols])
}

// addMatMulTB writes bᵀ into stack scratch, turning a·bᵀ into a·(bᵀ):
// the same k-ascending dot products, over contiguous rows.
func addMatMulTB(dst, a, b *Matrix) {
	var small [rowCap]float64
	var t []float64
	switch n := len(b.Data); {
	case b.Rows > rowCap || n > tCap:
		addMatMulTBGeneric(dst, a, b)
		return
	case n <= rowCap:
		t = small[:n]
	default:
		var large [tCap]float64
		t = large[:n]
	}
	for j := 0; j < b.Rows; j++ {
		for k, v := range b.Row(j) {
			t[k*b.Rows+j] = v
		}
	}
	var s [rowCap]float64
	dotRows(dst, a, t, s[:b.Rows])
}

// dotRows adds a·b into dst, b given as row-major data with len(s)
// columns: each row's dot products are summed from zero, k ascending,
// in the scratch row s and then added to dst.
func dotRows(dst, a *Matrix, b, s []float64) {
	n, bc := a.Cols, len(s)
	kq := n &^ 3
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		clear(s)
		axpy4d(s, arow[:kq], b[:kq*bc])
		for k := kq; k < n; k++ {
			for j, bv := range b[k*bc : (k+1)*bc] {
				s[j] += arow[k] * bv
			}
		}
		for j, v := range s {
			dst.Data[i*bc+j] += v
		}
	}
}

// addMatMulTA gathers a's column i, a quartet-aligned chunk at a time,
// and adds Σ_k a[k][i]·b[k] into dst's row i, k ascending.
func addMatMulTA(dst, a, b *Matrix) {
	ac, bc := a.Cols, b.Cols
	kq := a.Rows &^ 3
	var col [64]float64
	for i := 0; i < ac; i++ {
		drow := dst.Row(i)
		for k0 := 0; k0 < kq; k0 += len(col) {
			n := min(len(col), kq-k0)
			for t := range col[:n] {
				col[t] = a.Data[(k0+t)*ac+i]
			}
			axpy4d(drow, col[:n], b.Data[k0*bc:(k0+n)*bc])
		}
		for k := kq; k < a.Rows; k++ {
			if av := a.Data[k*ac+i]; av != 0 {
				for j, bv := range b.Row(k) {
					drow[j] += av * bv
				}
			}
		}
	}
}

// gemv4d is gemvGeneric for float64 in packed SSE2, two lanes per
// register. Implemented in gemv64_amd64.s.
//
//go:noescape
func gemv4d(dst, a, b []float64)

// gemv4 is gemvGeneric for float32 in packed SSE, four lanes per
// register. Implemented in gemv4_amd64.s.
//
//go:noescape
func gemv4(dst, a, b []float32)

// axpy4d computes dst[j] = (((dst[j] + a0*b0[j]) + a1*b1[j]) +
// a2*b2[j]) + a3*b3[j] per quartet of a, as gemv4d otherwise.
// Implemented in gemv64_amd64.s.
//
//go:noescape
func axpy4d(dst, a, b []float64)
