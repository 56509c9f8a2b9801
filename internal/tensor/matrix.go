// Package tensor provides a dense matrix type — float64 for training
// and reference scoring, float32 for the inference fast path — the
// trainable parameter, and the matmul and row primitives that the
// layers' forward and backward passes (package nn) and the scoring
// kernel are built from.
//
// All state is explicit, no global RNG is used, and every primitive
// that a backward pass uses is validated against finite differences in
// the test suite.
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
// (the scoring kernel) is generic over T.
type Mat[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is the float64 matrix: the type of every parameter, gradient
// and training activation, and of the reference scoring kernel.
type Matrix = Mat[float64]

// Matrix32 is the float32 matrix — the storage type of the
// single-precision scoring fast path. It is inference-only: no
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

// Param is a trainable parameter: a value matrix plus an accumulated
// gradient. Params persist across forward passes; optimizers consume
// Grad and zero it between steps.
type Param struct {
	Name  string
	Value *Matrix
	Grad  *Matrix
}

// NewParam wraps value as a named trainable parameter.
func NewParam(name string, value *Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: NewMatrix(value.Rows, value.Cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

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

// SliceRows returns rows [lo, hi) of m as a view: the result shares
// m's backing array, so a write through it — adding a gradient into a
// parameter's rows, say — lands in m.
func SliceRows[T Float](m *Mat[T], lo, hi int) *Mat[T] {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("tensor: row slice [%d, %d) of %d rows", lo, hi, m.Rows))
	}
	return &Mat[T]{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols]}
}

// Resize returns m as a rows x cols matrix, reusing its backing array
// when large enough (a nil m or a short array gets a new matrix).
// Contents are unspecified; callers overwrite fully.
func Resize[T Float](m *Mat[T], rows, cols int) *Mat[T] {
	need := rows * cols
	if m == nil || cap(m.Data) < need {
		return NewMat[T](rows, cols)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols = rows, cols
	return m
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

// MatMulInto computes dst = a·b. dst must not alias a or b. Each
// output element is a sum over k-quartets, every quartet's four
// products summed left to right before they are added in; all-zero
// quartets (padded or masked inputs) are skipped.
//
// On amd64 the four float64 primitives (this one, AddMatMul and
// AddMatMulTransposeA/B) run packed-SSE2 row kernels (gemv_amd64.go),
// bitwise identical to the portable loops here.
func MatMulInto(dst, a, b *Matrix) { matMul(dst, a, b, gemv4d) }

// matMul is the row driver behind MatMulInto and MatMulInto32: it
// zeroes dst, then per output row gemv adds the row's k-quartets and
// the scalar k-tail follows in the same left-to-right order, its zero
// terms skipped. gemv is the platform's row kernel for T, or
// gemvGeneric.
func matMul[T Float](dst, a, b *Mat[T], gemv func(dst, a, b []T)) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	kq := a.Cols &^ 3
	for i := 0; i < a.Rows; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		gemv(drow, arow[:kq], b.Data[:kq*b.Cols])
		for k := kq; k < a.Cols; k++ {
			if av := arow[k]; av != 0 {
				for j, bv := range b.Row(k) {
					drow[j] += av * bv
				}
			}
		}
	}
}

// gemvGeneric is the portable row kernel: dst[j] += a0*b0[j] + a1*b1[j]
// + a2*b2[j] + a3*b3[j] for each successive quartet of a, the products
// summed left to right before they are added to dst, bk being row k of
// the len(a) x len(dst) row-major block b. All-zero quartets are
// skipped (-0 included). gemv4d and gemv4 are its packed-SSE forms on
// amd64; elsewhere they call it.
func gemvGeneric[T Float](dst, a, b []T) {
	bc := len(dst)
	for k := 0; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := b[k*bc : (k+1)*bc]
		b1 := b[(k+1)*bc : (k+2)*bc]
		b2 := b[(k+2)*bc : (k+3)*bc]
		b3 := b[(k+3)*bc : (k+4)*bc : (k+4)*bc]
		for j := range b3 {
			dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
}

// AddMatMul accumulates dst += a·b. Used by backward passes; each output
// element is a k-ascending dot product summed from zero and then added
// to dst, matching the accumulation order of AddMatMulTransposeB so
// batched and unbatched backward passes agree.
func AddMatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: addmatmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	addMatMul(dst, a, b)
}

func addMatMulGeneric(dst, a, b *Matrix) {
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

// AddMatMulTransposeB accumulates dst += a·bᵀ. Used by backward passes;
// each output element is a k-ascending dot product summed from zero and
// then added to dst.
func AddMatMulTransposeB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: addmatmulT shape mismatch")
	}
	addMatMulTB(dst, a, b)
}

func addMatMulTBGeneric(dst, a, b *Matrix) {
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

// AddMatMulTransposeA accumulates dst += aᵀ·b. Used by backward passes;
// each product is added into dst in k-ascending order (a zero term of a
// may be skipped: it leaves a finite sum as it was).
func AddMatMulTransposeA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: addmatmulTA shape mismatch")
	}
	addMatMulTA(dst, a, b)
}

func addMatMulTAGeneric(dst, a, b *Matrix) {
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
