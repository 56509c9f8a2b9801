//go:build !amd64

package tensor

// The float64 matmul primitives fall back to the portable kernels on
// targets without the packed-SSE2 row kernels.

func matMul64(dst, a, b *Matrix)    { matMul64Generic(dst, a, b) }
func addMatMul(dst, a, b *Matrix)   { addMatMulGeneric(dst, a, b) }
func addMatMulTB(dst, a, b *Matrix) { addMatMulTBGeneric(dst, a, b) }
func addMatMulTA(dst, a, b *Matrix) { addMatMulTAGeneric(dst, a, b) }
