package tensor

// Matrix32From converts a float64 matrix by value truncation — the
// once-per-checkpoint weight conversion of the float32 scoring path.
func Matrix32From(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// MatMulInto32 computes dst = a·b in float32. dst must not alias a or
// b. It is MatMulInto's row driver over the float32 row kernel — on
// amd64 packed SSE, 4 lanes per instruction, the parallelism the
// scalar float64 path cannot reach — with the same add order and the
// same all-zero-quartet skip.
func MatMulInto32(dst, a, b *Matrix32) { matMul(dst, a, b, gemv4) }
