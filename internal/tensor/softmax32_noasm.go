//go:build !amd64

package tensor

// softmax32 falls back to the portable kernel on targets without the
// packed-SSE implementation.
func softmax32(dst, src []float32) { softmax32Generic(dst, src) }
