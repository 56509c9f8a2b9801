//go:build !amd64

package tensor

// The row kernels and float64 matmul primitives fall back to the
// portable loops on targets without the packed-SSE kernels.

func gemv4d(dst, a, b []float64)    { gemvGeneric(dst, a, b) }
func gemv4(dst, a, b []float32)     { gemvGeneric(dst, a, b) }
func addMatMul(dst, a, b *Matrix)   { addMatMulGeneric(dst, a, b) }
func addMatMulTB(dst, a, b *Matrix) { addMatMulTBGeneric(dst, a, b) }
func addMatMulTA(dst, a, b *Matrix) { addMatMulTAGeneric(dst, a, b) }
