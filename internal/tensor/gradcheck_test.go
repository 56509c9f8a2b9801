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

// runScalar runs forward+backward for a scalar-producing graph and
// returns the loss value with gradients accumulated into the params.
func runScalar(build func(tp *Tape) *Node, params ...*Param) float64 {
	for _, p := range params {
		p.ZeroGrad()
	}
	tp := NewTape()
	out := build(tp)
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic("runScalar: non-scalar output")
	}
	tp.Backward(out)
	return out.Value.Data[0]
}

func randParam(name string, rows, cols int, rng *rand.Rand) *Param {
	return NewParam(name, NewRandN(rows, cols, 1, rng))
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam("a", 3, 4, rng)
	b := randParam("b", 4, 2, rng)
	build := func(tp *Tape) *Node { return tp.Sum(tp.MatMul(tp.Param(a), tp.Param(b))) }
	runScalar(build, a, b)
	ga, gb := a.Grad.Clone(), b.Grad.Clone()
	loss := func() float64 { return runScalar(build, a, b) }
	numericalCheck(t, "matmul/a", a, loss, ga)
	numericalCheck(t, "matmul/b", b, loss, gb)
}

func TestElementwiseGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name string
		f    func(tp *Tape, x *Node) *Node
	}{
		{"sigmoid", func(tp *Tape, x *Node) *Node { return tp.Sigmoid(x) }},
		{"tanh", func(tp *Tape, x *Node) *Node { return tp.Tanh(x) }},
		{"square", func(tp *Tape, x *Node) *Node { return tp.Square(x) }},
		{"scale", func(tp *Tape, x *Node) *Node { return tp.Scale(x, -2.5) }},
	}
	for _, tc := range cases {
		a := randParam(tc.name, 2, 3, rng)
		build := func(tp *Tape) *Node { return tp.Sum(tc.f(tp, tp.Param(a))) }
		runScalar(build, a)
		ga := a.Grad.Clone()
		numericalCheck(t, tc.name, a, func() float64 { return runScalar(build, a) }, ga)
	}
}

func TestReLUGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam("a", 2, 4, rng)
	// Keep inputs away from the kink at 0 so finite differences are valid.
	for i := range a.Value.Data {
		if math.Abs(a.Value.Data[i]) < 0.1 {
			a.Value.Data[i] = 0.5
		}
	}
	build := func(tp *Tape) *Node { return tp.Sum(tp.ReLU(tp.Param(a))) }
	runScalar(build, a)
	ga := a.Grad.Clone()
	numericalCheck(t, "relu", a, func() float64 { return runScalar(build, a) }, ga)
}

func TestBinaryGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := []struct {
		name string
		f    func(tp *Tape, a, b *Node) *Node
	}{
		{"add", func(tp *Tape, a, b *Node) *Node { return tp.Add(a, b) }},
		{"sub", func(tp *Tape, a, b *Node) *Node { return tp.Sub(a, b) }},
		{"mul", func(tp *Tape, a, b *Node) *Node { return tp.Mul(a, b) }},
	}
	for _, op := range ops {
		a := randParam("a", 2, 3, rng)
		b := randParam("b", 2, 3, rng)
		build := func(tp *Tape) *Node { return tp.Sum(op.f(tp, tp.Param(a), tp.Param(b))) }
		runScalar(build, a, b)
		ga, gb := a.Grad.Clone(), b.Grad.Clone()
		loss := func() float64 { return runScalar(build, a, b) }
		numericalCheck(t, op.name+"/a", a, loss, ga)
		numericalCheck(t, op.name+"/b", b, loss, gb)
	}
}

func TestRowVecGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam("a", 3, 4, rng)
	v := randParam("v", 1, 4, rng)
	for _, tc := range []struct {
		name string
		f    func(tp *Tape, a, v *Node) *Node
	}{
		{"addrowvec", func(tp *Tape, a, v *Node) *Node { return tp.AddRowVec(a, v) }},
	} {
		build := func(tp *Tape) *Node { return tp.Sum(tp.Square(tc.f(tp, tp.Param(a), tp.Param(v)))) }
		runScalar(build, a, v)
		ga, gv := a.Grad.Clone(), v.Grad.Clone()
		loss := func() float64 { return runScalar(build, a, v) }
		numericalCheck(t, tc.name+"/a", a, loss, ga)
		numericalCheck(t, tc.name+"/v", v, loss, gv)
	}
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

func TestGatherRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	emb := randParam("emb", 6, 4, rng)
	idx := []int{2, 0, 2, 5, -1} // repeated and padding indices
	build := func(tp *Tape) *Node { return tp.Sum(tp.Square(tp.GatherRows(tp.Param(emb), idx))) }
	runScalar(build, emb)
	g := emb.Grad.Clone()
	numericalCheck(t, "gather", emb, func() float64 { return runScalar(build, emb) }, g)
	// The padding row produced zeros and received no gradient anywhere.
	for c := 0; c < 4; c++ {
		if g.At(1, c) != 0 || g.At(3, c) != 0 || g.At(4, c) != 0 {
			t.Errorf("unused embedding rows must have zero grad, got %v", g)
			break
		}
	}
}

// TestConcatSliceGrads: overlapping column slices of one matrix,
// recombined — the way the LSTM cell slices its four gates out of one
// pre-activation — route their gradients back to the right columns.
func TestConcatSliceGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam("a", 3, 5, rng)
	build := func(tp *Tape) *Node {
		x := tp.Param(a)
		return tp.Sum(tp.Square(tp.Mul(tp.SliceCols(x, 0, 3), tp.SliceCols(x, 2, 5))))
	}
	runScalar(build, a)
	ga := a.Grad.Clone()
	numericalCheck(t, "slice", a, func() float64 { return runScalar(build, a) }, ga)
}

func TestReduceGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam("a", 3, 4, rng)
	for _, tc := range []struct {
		name string
		f    func(tp *Tape, x *Node) *Node
	}{
		{"mean", func(tp *Tape, x *Node) *Node { return tp.Mean(tp.Square(x)) }},
	} {
		build := func(tp *Tape) *Node { return tc.f(tp, tp.Param(a)) }
		runScalar(build, a)
		ga := a.Grad.Clone()
		numericalCheck(t, tc.name, a, func() float64 { return runScalar(build, a) }, ga)
	}
}

func TestCrossEntropyMeanGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	logits := randParam("logits", 4, 5, rng)
	targets := []int{1, 4, -1, 0} // includes an ignored position
	build := func(tp *Tape) *Node { return tp.CrossEntropyMean(tp.Param(logits), targets) }
	runScalar(build, logits)
	g := logits.Grad.Clone()
	numericalCheck(t, "xent", logits, func() float64 { return runScalar(build, logits) }, g)
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
