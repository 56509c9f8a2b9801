//go:build amd64

package tensor

// softmax32 is the packed-SSE2 row softmax behind SoftmaxInto32;
// len(dst) must be at least len(src).
// Implemented in softmax32_amd64.s.
//
//go:noescape
func softmax32(dst, src []float32)
