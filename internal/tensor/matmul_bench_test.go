package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMul times MatMulInto and MatMulInto32 at the model's
// projection shapes: the small bench model's and the paper model's
// fused Q|K|V projections (8x16·16x48, 30x64·64x192) and a training
// projection (30x64·64x64). It calls only the two exported matmuls, so
// the file also runs on a parent checkout.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range [][3]int{{8, 16, 48}, {30, 64, 192}, {30, 64, 64}} {
		m, k, n := s[0], s[1], s[2]
		a, w := NewRandN(m, k, 1, rng), NewRandN(k, n, 1, rng)
		flop := float64(2 * m * k * n)
		shape := fmt.Sprintf("%dx%dx%d", m, k, n)
		b.Run("f64/"+shape, func(b *testing.B) {
			dst := NewMatrix(m, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, w)
			}
			b.ReportMetric(flop*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "Gflop/s")
		})
		b.Run("f32/"+shape, func(b *testing.B) {
			a32, w32, dst := Matrix32From(a), Matrix32From(w), NewMatrix32(m, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto32(dst, a32, w32)
			}
			b.ReportMetric(flop*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "Gflop/s")
		})
	}
}
