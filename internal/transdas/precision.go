package transdas

import (
	"fmt"

	"github.com/ucad/ucad/internal/tensor"
)

// Precision selects the element type the scoring kernel runs at.
// Training and the property-tested reference path are always float64;
// float32 is an opt-in inference fast path that halves the memory
// traffic of the scoring matmuls and, on amd64, runs them four lanes
// per instruction through packed-SSE kernels the scalar float64 path
// cannot use.
type Precision int

const (
	// PrecisionFloat64 scores through the kernel's float64 instantiation
	// — the reference path, pinned to the tape forward within 1e-9.
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

// ParsePrecision parses a -score-precision flag value. The empty
// string means the float64 default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64", "f64", "64":
		return PrecisionFloat64, nil
	case "float32", "f32", "32":
		return PrecisionFloat32, nil
	}
	return PrecisionFloat64, fmt.Errorf("transdas: unknown score precision %q (want float64 or float32)", s)
}

// The fused scoring kernel (kernel.go) is one implementation; the
// methods below are everything that differs between its instantiations:
// where the weights come from (and whether the first block's projection
// is a per-key table), which matmul and row softmax run, and whether the
// packed dk=8 attention kernels exist.

// kernel64 readies the float64 kernel over the model's live parameters.
// The weight view aliases their storage and is re-taken on every pass
// (only the fused Q|K|V concat is copied), so a Scorer stays valid
// across in-place fine-tuning.
func (s *Scorer) kernel64() *kernel[float64] {
	k := &s.k64
	if k.w == nil {
		k.w, k.matmul, k.softmax = new(weights[float64]), tensor.MatMulInto, tensor.SoftmaxInto[float64]
	}
	k.w.load(s.m, func(v []float64) []float64 { return v })
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

// snapshot32 returns the frozen single-precision copy of the weights
// for the current weight generation, converting at most once per
// generation (checkpoint load, fine-tune round, hot swap;
// double-checked under snapMu) and shared read-only by every Scorer,
// which keeps the per-batch conversion cost at zero. Without a
// positional embedding it also carries the first block's projection as
// a per-key table (weights.qkv0), which lives and dies with the
// snapshot: a weight change retires both together. Safe for
// concurrent scorers; callers must externally serialize against weight
// mutation exactly as float64 scoring already is.
func (m *Model) snapshot32() *weights[float32] {
	gen := m.weightGen.Load()
	if w := m.snap32.Load(); w != nil && w.gen == gen {
		return w
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	gen = m.weightGen.Load()
	if w := m.snap32.Load(); w != nil && w.gen == gen {
		return w
	}
	w := &weights[float32]{gen: gen}
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
	m.snap32.Store(w)
	return w
}
