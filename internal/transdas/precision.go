package transdas

import (
	"sync/atomic"

	"github.com/ucad/ucad/internal/tensor"
)

// Precision selects the element type the scoring kernel runs at.
// Training and the property-tested reference path are always float64,
// and so is what the paper reproduction scores with; ucad-serve always
// scores at float32, which halves the memory traffic of the scoring
// matmuls and, on amd64, runs them four lanes per instruction through
// packed-SSE kernels the scalar float64 path cannot use.
type Precision int

const (
	// PrecisionFloat64 scores through the kernel's float64 instantiation
	// — the reference path, pinned to the training step's full forward
	// pass within 1e-9.
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 scores through its float32 instantiation over a
	// frozen weight snapshot; scores agree with the reference within
	// 1e-4 and verdicts/ranks are stable on the paper's workloads (see
	// the float32 equivalence suite).
	PrecisionFloat32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	if p == PrecisionFloat32 {
		return "float32"
	}
	return "float64"
}

// The fused scoring kernel (kernel.go) is one implementation; the
// methods below are everything that differs between its instantiations:
// where the weights come from (and whether the first block's projection
// is a per-key table), which matmul and row softmax run, and whether the
// packed dk=8 attention kernels exist.

// kernel64 readies the float64 kernel over the model's weights: the
// parameters' own storage plus the fused Q|K|V concat, built once per
// model (see weights64).
func (s *Scorer) kernel64() *kernel[float64] {
	k := &s.k64
	k.w, k.matmul, k.softmax = s.m.weights64(), tensor.MatMulInto, tensor.SoftmaxInto[float64]
	return k
}

// kernel32 readies the float32 kernel over the frozen single-precision
// weight snapshot, with the packed-SSE matmul, row softmax and dk=8
// attention kernels (portable fallbacks off amd64).
func (s *Scorer) kernel32() *kernel[float32] {
	k := &s.k32
	k.w, k.matmul, k.softmax = s.m.snapshot32(), tensor.MatMulInto32, tensor.SoftmaxInto32
	k.qk8, k.av8 = tensor.QKScores8, tensor.AttnV8
	return k
}

// weights64 returns the float64 kernel's view of the weights: it
// aliases the parameters' storage, and only the fused Q|K|V concat is a
// copy.
func (m *Model) weights64() *weights[float64] {
	return builtOnce(&m.w64, func() *weights[float64] {
		w := new(weights[float64])
		w.load(m, func(v []float64) []float64 { return v })
		return w
	})
}

// snapshot32 returns the frozen single-precision copy of the weights,
// converted once per model and shared read-only by every Scorer, which
// keeps the per-batch conversion cost at zero. Without a positional
// embedding it also carries the first block's projection as a per-key
// table (weights.qkv0).
func (m *Model) snapshot32() *weights[float32] {
	return builtOnce(&m.snap32, func() *weights[float32] {
		w := new(weights[float32])
		w.load(m, func(src []float64) []float32 {
			out := make([]float32, len(src))
			for i, v := range src {
				out[i] = float32(v)
			}
			return out
		})
		if m.pos == nil {
			// By MatMulInto32 itself, so a table row is bit for bit what the
			// kernel's matmul computes for that key in any batch.
			w.qkv0 = tensor.NewMatrix32(w.emb.Rows, w.blocks[0].wqkv.Cols)
			tensor.MatMulInto32(w.qkv0, &w.emb, w.blocks[0].wqkv)
			clear(w.qkv0.Row(m.emb.PadKey))
		}
		return w
	})
}

// builtOnce returns *p, building and publishing it on first use. Two
// scorers racing on a cold model may both build; one copy wins and the
// other is dropped.
func builtOnce[T tensor.Float](p *atomic.Pointer[weights[T]], build func() *weights[T]) *weights[T] {
	if w := p.Load(); w != nil {
		return w
	}
	p.CompareAndSwap(nil, build())
	return p.Load()
}
