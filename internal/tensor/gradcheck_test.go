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
		pos  bool // restrict input to positive values (log)
	}{
		{"sigmoid", func(tp *Tape, x *Node) *Node { return tp.Sigmoid(x) }, false},
		{"tanh", func(tp *Tape, x *Node) *Node { return tp.Tanh(x) }, false},
		{"square", func(tp *Tape, x *Node) *Node { return tp.Square(x) }, false},
		{"scale", func(tp *Tape, x *Node) *Node { return tp.Scale(x, -2.5) }, false},
		{"addscalar", func(tp *Tape, x *Node) *Node { return tp.AddScalar(x, 3) }, false},
		{"log", func(tp *Tape, x *Node) *Node { return tp.Log(x) }, true},
	}
	for _, tc := range cases {
		a := randParam(tc.name, 2, 3, rng)
		if tc.pos {
			for i := range a.Value.Data {
				a.Value.Data[i] = math.Abs(a.Value.Data[i]) + 0.5
			}
		}
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
		{"mulrowvec", func(tp *Tape, a, v *Node) *Node { return tp.MulRowVec(a, v) }},
	} {
		build := func(tp *Tape) *Node { return tp.Sum(tp.Square(tc.f(tp, tp.Param(a), tp.Param(v)))) }
		runScalar(build, a, v)
		ga, gv := a.Grad.Clone(), v.Grad.Clone()
		loss := func() float64 { return runScalar(build, a, v) }
		numericalCheck(t, tc.name+"/a", a, loss, ga)
		numericalCheck(t, tc.name+"/v", v, loss, gv)
	}
}

func TestSoftmaxRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam("a", 3, 5, rng)
	w := NewRandN(3, 5, 1, rng)
	build := func(tp *Tape) *Node { return tp.Sum(tp.Mul(tp.SoftmaxRows(tp.Param(a)), tp.Const(w))) }
	runScalar(build, a)
	ga := a.Grad.Clone()
	numericalCheck(t, "softmax", a, func() float64 { return runScalar(build, a) }, ga)
}

func TestNormalizeRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam("a", 3, 6, rng)
	w := NewRandN(3, 6, 1, rng)
	build := func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.NormalizeRows(tp.Param(a), 1e-5), tp.Const(w)))
	}
	runScalar(build, a)
	ga := a.Grad.Clone()
	numericalCheck(t, "normalize", a, func() float64 { return runScalar(build, a) }, ga)
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

func TestConcatSliceGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam("a", 3, 2, rng)
	b := randParam("b", 3, 3, rng)
	build := func(tp *Tape) *Node {
		cat := tp.ConcatCols(tp.Param(a), tp.Param(b))
		mid := tp.SliceCols(cat, 1, 4)
		return tp.Sum(tp.Square(mid))
	}
	runScalar(build, a, b)
	ga, gb := a.Grad.Clone(), b.Grad.Clone()
	loss := func() float64 { return runScalar(build, a, b) }
	numericalCheck(t, "concat-slice/a", a, loss, ga)
	numericalCheck(t, "concat-slice/b", b, loss, gb)
}

func TestSliceRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam("a", 5, 3, rng)
	build := func(tp *Tape) *Node { return tp.Sum(tp.Square(tp.SliceRows(tp.Param(a), 1, 4))) }
	runScalar(build, a)
	ga := a.Grad.Clone()
	numericalCheck(t, "slicerows", a, func() float64 { return runScalar(build, a) }, ga)
}

func TestReduceGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam("a", 3, 4, rng)
	for _, tc := range []struct {
		name string
		f    func(tp *Tape, x *Node) *Node
	}{
		{"mean", func(tp *Tape, x *Node) *Node { return tp.Mean(tp.Square(x)) }},
		{"sumrows", func(tp *Tape, x *Node) *Node { return tp.Sum(tp.Square(tp.SumRows(x))) }},
		{"rowdot", func(tp *Tape, x *Node) *Node { return tp.Sum(tp.RowDot(x, x)) }},
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

func TestMatMulNTGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const ra, rb, c = 4, 5, 3
	a := randParam("a", ra, c, rng)
	b := randParam("b", rb, c, rng)
	// Weight the sum so every output element carries a distinct gradient.
	w := NewRandN(ra, rb, 1, rng)
	build := func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.MatMulNT(tp.Param(a), tp.Param(b)), tp.Const(w)))
	}
	tp := NewTape()
	out := tp.MatMulNT(tp.Param(a), tp.Param(b))
	for r := 0; r < ra; r++ {
		for col := 0; col < rb; col++ {
			var want float64
			for k := 0; k < c; k++ {
				want += a.Value.At(r, k) * b.Value.At(col, k)
			}
			if got := out.Value.At(r, col); math.Abs(got-want) > 1e-12 {
				t.Fatalf("NT[%d,%d] = %g, want a·bᵀ = %g", r, col, got, want)
			}
		}
	}
	runScalar(build, a, b)
	ga, gb := a.Grad.Clone(), b.Grad.Clone()
	loss := func() float64 { return runScalar(build, a, b) }
	numericalCheck(t, "matmulNT/a", a, loss, ga)
	numericalCheck(t, "matmulNT/b", b, loss, gb)
}
