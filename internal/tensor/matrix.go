// Package tensor provides a dense matrix type — float64 for training
// and reference scoring, float32 for the inference fast path — and a
// tape-based reverse-mode automatic differentiation engine over the
// float64 one.
//
// It is the numeric substrate for the Trans-DAS transformer and the
// deep-learning baselines (DeepLog, USAD). The design favors clarity and
// determinism over raw speed: all state is explicit, no global RNG is
// used, and every differentiable operation is validated against finite
// differences in the test suite.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Float is the element-type set of Mat.
type Float interface{ ~float32 | ~float64 }

// Mat is a dense, row-major matrix over element type T. It has exactly
// two instantiations, Matrix and Matrix32; code written once for both
// (the tape-free scoring kernel) is generic over T.
type Mat[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is the float64 matrix: the type of every parameter, gradient
// and tape value, and of the reference scoring kernel.
type Matrix = Mat[float64]

// Matrix32 is the float32 matrix — the storage type of the
// single-precision scoring fast path. It is inference-only: no tape, no
// gradients. It halves the memory traffic of the scoring matmuls, which
// are bandwidth-bound at serving batch sizes (the weights stream from
// L2/L3 while the activation blocks are revisited per k-quartet).
type Matrix32 = Mat[float32]

// NewMat returns a zero-initialized Rows x Cols matrix.
func NewMat[T Float](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// NewMatrix returns a zero-initialized Rows x Cols float64 matrix.
func NewMatrix(rows, cols int) *Matrix { return NewMat[float64](rows, cols) }

// NewMatrix32 returns a zero-initialized Rows x Cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 { return NewMat[float32](rows, cols) }

// FromSlice builds a Rows x Cols matrix that takes ownership of data.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// NewXavier returns a matrix with entries drawn uniformly from
// [-limit, limit] where limit = sqrt(6/(rows+cols)) (Glorot init).
func NewXavier(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}

// NewRandN returns a matrix with entries drawn from N(0, std²).
func NewRandN(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// At returns the element at row r, column c.
func (m *Mat[T]) At(r, c int) T { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Mat[T]) Set(r, c int, v T) { m.Data[r*m.Cols+c] = v }

// Row returns a view (shared backing array) of row r.
func (m *Mat[T]) Row(r int) []T { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat[T]) Clone() *Mat[T] {
	c := NewMat[T](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements to zero.
func (m *Mat[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Mat[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Mat[T]) SameShape(o *Mat[T]) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// AddInto accumulates dst += src element-wise. It is the gradient
// reduction primitive of the data-parallel trainer: per-worker
// accumulators are folded into the shared parameter gradient in a fixed
// order, so the floating-point sum is reproducible across runs.
func AddInto(dst, src *Matrix) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: addinto shape mismatch %dx%d += %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// String renders the matrix for debugging.
func (m *Mat[T]) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			s += "; "
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(r, c))
		}
	}
	return s + "]"
}

// MatMulInto computes dst = a·b without autodiff. dst must not alias a
// or b. The inner loop processes four k-terms per pass over the output
// row, quartering the store traffic of a plain axpy walk; all-zero
// quartets (padded or masked inputs) are skipped.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	n, bc := a.Cols, b.Cols
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		ar0 := a.Data[i*n : (i+1)*n]
		ar1 := a.Data[(i+1)*n : (i+2)*n]
		dr0 := dst.Data[i*bc : (i+1)*bc]
		dr1 := dst.Data[(i+1)*bc : (i+2)*bc]
		k := 0
		for ; k+4 <= n; k += 4 {
			a00, a01, a02, a03 := ar0[k], ar0[k+1], ar0[k+2], ar0[k+3]
			a10, a11, a12, a13 := ar1[k], ar1[k+1], ar1[k+2], ar1[k+3]
			if a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0 &&
				a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0 {
				continue
			}
			b0 := b.Data[k*bc : (k+1)*bc]
			b1 := b.Data[(k+1)*bc : (k+2)*bc]
			b2 := b.Data[(k+2)*bc : (k+3)*bc]
			b3 := b.Data[(k+3)*bc : (k+4)*bc : (k+4)*bc]
			for j := range b3 {
				v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
				dr0[j] += a00*v0 + a01*v1 + a02*v2 + a03*v3
				dr1[j] += a10*v0 + a11*v1 + a12*v2 + a13*v3
			}
		}
		for ; k < n; k++ {
			a0v, a1v := ar0[k], ar1[k]
			if a0v == 0 && a1v == 0 {
				continue
			}
			brow := b.Data[k*bc : (k+1)*bc]
			for j, bv := range brow {
				dr0[j] += a0v * bv
				dr1[j] += a1v * bv
			}
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*bc : (i+1)*bc]
		k := 0
		for ; k+4 <= n; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*bc : (k+1)*bc]
			b1 := b.Data[(k+1)*bc : (k+2)*bc]
			b2 := b.Data[(k+2)*bc : (k+3)*bc]
			b3 := b.Data[(k+3)*bc : (k+4)*bc : (k+4)*bc]
			for j := range b3 {
				drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < n; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*bc : (k+1)*bc]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// AddMatMul accumulates dst += a·b. Used by backward passes; each output
// element is a k-ascending dot product, matching the accumulation order
// of AddMatMulTransposeB so batched and unbatched backward passes agree.
func AddMatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: addmatmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k, av := range arow {
				s += av * b.Data[k*b.Cols+j]
			}
			drow[j] += s
		}
	}
}

// AddMatMulTransposeB accumulates dst += a·bᵀ. Used by backward passes.
func AddMatMulTransposeB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: addmatmulT shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] += s
		}
	}
}

// AddMatMulTransposeA accumulates dst += aᵀ·b. Used by backward passes.
func AddMatMulTransposeA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: addmatmulTA shape mismatch")
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}
