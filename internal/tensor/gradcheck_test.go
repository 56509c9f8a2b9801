package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// numericalCheck compares the analytic gradient of loss w.r.t. p against
// central finite differences.
func numericalCheck(t *testing.T, name string, p *Param, loss func() float64, analytic *Matrix) {
	t.Helper()
	const h = 1e-5
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + h
		up := loss()
		p.Value.Data[i] = orig - h
		down := loss()
		p.Value.Data[i] = orig
		want := (up - down) / (2 * h)
		got := analytic.Data[i]
		if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("%s: grad[%d] = %g, finite diff = %g", name, i, got, want)
		}
	}
}

func randParam(name string, rows, cols int, rng *rand.Rand) *Param {
	return NewParam(name, NewRandN(rows, cols, 1, rng))
}

// TestMatMulGrad: the gradients of Σ a·b that a layer's backward pass
// takes through MatMulInto's product — ∂/∂a = 1·bᵀ
// (AddMatMulTransposeB) and ∂/∂b = aᵀ·1 (AddMatMulTransposeA) — match
// finite differences.
func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam("a", 3, 4, rng)
	b := randParam("b", 4, 2, rng)
	out := NewMatrix(3, 2)
	loss := func() float64 {
		MatMulInto(out, a.Value, b.Value)
		var s float64
		for _, v := range out.Data {
			s += v
		}
		return s
	}
	ones := NewMatrix(3, 2)
	ones.Fill(1)
	ga, gb := NewMatrix(3, 4), NewMatrix(4, 2)
	AddMatMulTransposeB(ga, ones, b.Value)
	AddMatMulTransposeA(gb, a.Value, ones)
	numericalCheck(t, "matmul/a", a, loss, ga)
	numericalCheck(t, "matmul/b", b, loss, gb)
}

// TestSoftmaxRowsGrad: SoftmaxRowBackward is the gradient of a row
// softmax (SoftmaxInto), checked by finite differences of Σ w ⊙ softmax.
func TestSoftmaxRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam("a", 3, 5, rng)
	w := NewRandN(3, 5, 1, rng)
	y := NewMatrix(3, 5)
	loss := func() float64 {
		var s float64
		for r := 0; r < 3; r++ {
			SoftmaxInto(y.Row(r), a.Value.Row(r))
			for c, v := range y.Row(r) {
				s += v * w.At(r, c)
			}
		}
		return s
	}
	loss()
	ga := NewMatrix(3, 5)
	for r := 0; r < 3; r++ {
		SoftmaxRowBackward(ga.Row(r), w.Row(r), y.Row(r))
	}
	numericalCheck(t, "softmax", a, loss, ga)
}

// TestNormalizeRowsGrad: StandardizeRowBackward is the gradient of
// StandardizeRow, checked by finite differences of Σ w ⊙ x̂.
func TestNormalizeRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam("a", 3, 6, rng)
	w := NewRandN(3, 6, 1, rng)
	xhat := NewMatrix(3, 6)
	inv := make([]float64, 3)
	loss := func() float64 {
		var s float64
		for r := 0; r < 3; r++ {
			inv[r] = StandardizeRow(xhat.Row(r), a.Value.Row(r), 1e-5)
			for c, v := range xhat.Row(r) {
				s += v * w.At(r, c)
			}
		}
		return s
	}
	loss()
	ga := NewMatrix(3, 6)
	for r := 0; r < 3; r++ {
		StandardizeRowBackward(ga.Row(r), w.Row(r), xhat.Row(r), inv[r])
	}
	numericalCheck(t, "normalize", a, loss, ga)
}

// TestSliceRowsGrad: SliceRows is a view, so a gradient added into a
// slice of a's gradient lands in rows [lo, hi) and nowhere else — the
// positional embedding's read of a window's leading rows — checked by
// finite differences of Σ a[1:4]².
func TestSliceRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam("a", 5, 3, rng)
	loss := func() float64 {
		var s float64
		for _, v := range SliceRows(a.Value, 1, 4).Data {
			s += v * v
		}
		return s
	}
	g := SliceRows(a.Value, 1, 4).Clone()
	for i, v := range g.Data {
		g.Data[i] = 2 * v
	}
	ga := NewMatrix(5, 3)
	AddInto(SliceRows(ga, 1, 4), g)
	numericalCheck(t, "slicerows", a, loss, ga)
}

// TestCrossEntropyMeanGrad: CrossEntropyRow's gradient, averaged over
// rows, is the gradient of the mean next-key loss, checked by finite
// differences.
func TestCrossEntropyMeanGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	logits := randParam("logits", 4, 5, rng)
	targets := []int{1, 4, 2, 0}
	scratch := make([]float64, 5)
	loss := func() float64 {
		var s float64
		for r, tgt := range targets {
			s += CrossEntropyRow(scratch, logits.Value.Row(r), tgt)
		}
		return s / 4
	}
	g := NewMatrix(4, 5)
	for r, tgt := range targets {
		CrossEntropyRow(g.Row(r), logits.Value.Row(r), tgt)
	}
	for i := range g.Data {
		g.Data[i] /= 4
	}
	numericalCheck(t, "xent", logits, loss, g)
}

// TestMatMulNTGrad checks the attention-score product a·bᵀ
// (AddMatMulTransposeB) against its definition, and the two primitives
// its gradient runs through — ∂/∂a = g·b (AddMatMul) and ∂/∂b = gᵀ·a
// (AddMatMulTransposeA) — against finite differences of Σ w ⊙ (a·bᵀ).
// The inner dimension 7 covers a k-quartet and the scalar tail.
func TestMatMulNTGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const ra, rb, c = 5, 6, 7
	a := randParam("a", ra, c, rng)
	b := randParam("b", rb, c, rng)
	// Weight the sum so every output element carries a distinct gradient.
	w := NewRandN(ra, rb, 1, rng)
	nt := func() *Matrix {
		out := NewMatrix(ra, rb)
		AddMatMulTransposeB(out, a.Value, b.Value)
		return out
	}
	out := nt()
	for r := 0; r < ra; r++ {
		for col := 0; col < rb; col++ {
			var want float64
			for k := 0; k < c; k++ {
				want += a.Value.At(r, k) * b.Value.At(col, k)
			}
			if got := out.At(r, col); math.Abs(got-want) > 1e-12 {
				t.Fatalf("NT[%d,%d] = %g, want a·bᵀ = %g", r, col, got, want)
			}
		}
	}
	loss := func() float64 {
		var s float64
		for i, v := range nt().Data {
			s += v * w.Data[i]
		}
		return s
	}
	ga, gb := NewMatrix(ra, c), NewMatrix(rb, c)
	AddMatMul(ga, w, b.Value)
	AddMatMulTransposeA(gb, w, a.Value)
	numericalCheck(t, "matmulNT/a", a, loss, ga)
	numericalCheck(t, "matmulNT/b", b, loss, gb)
}
