package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	if got := m.Row(1)[2]; got != 7 {
		t.Fatalf("Row view = %v, want 7", got)
	}
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone must not alias the original")
	}
	m.Fill(3)
	for _, v := range m.Data {
		if v != 3 {
			t.Fatal("Fill failed")
		}
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMulShapePanic(t *testing.T) {
	tp := NewTape()
	a := tp.Const(NewMatrix(2, 3))
	b := tp.Const(NewMatrix(2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for incompatible matmul shapes")
		}
	}()
	tp.MatMul(a, b)
}

func TestMatMulValues(t *testing.T) {
	tp := NewTape()
	a := tp.Const(FromSlice(2, 2, []float64{1, 2, 3, 4}))
	b := tp.Const(FromSlice(2, 2, []float64{5, 6, 7, 8}))
	out := tp.MatMul(a, b).Value
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("matmul = %v, want %v", out.Data, want)
		}
	}
}

// Property: softmax rows are a probability distribution.
func TestSoftmaxRowsIsDistribution(t *testing.T) {
	f := func(vals [12]float64) bool {
		data := make([]float64, 12)
		for i, v := range vals {
			data[i] = math.Mod(v, 30) // keep exp() finite
			if math.IsNaN(data[i]) {
				data[i] = 0
			}
		}
		tp := NewTape()
		out := tp.SoftmaxRows(tp.Const(FromSlice(3, 4, data))).Value
		for r := 0; r < 3; r++ {
			var sum float64
			for _, p := range out.Row(r) {
				if p < 0 || p > 1 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NormalizeRows output has ~zero mean and ~unit variance per row.
func TestNormalizeRowsMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		tp := NewTape()
		a := tp.Const(NewRandN(4, 8, 3, rng))
		out := tp.NormalizeRows(a, 1e-8).Value
		for r := 0; r < out.Rows; r++ {
			var mu, v float64
			for _, x := range out.Row(r) {
				mu += x
			}
			mu /= float64(out.Cols)
			for _, x := range out.Row(r) {
				v += (x - mu) * (x - mu)
			}
			v /= float64(out.Cols)
			if math.Abs(mu) > 1e-8 || math.Abs(v-1) > 1e-4 {
				t.Fatalf("row %d moments mu=%g var=%g", r, mu, v)
			}
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tp := NewTape()
	a := tp.Const(NewRandN(3, 3, 1, rng))
	out := tp.Dropout(a, 0.5, false, rng)
	if out != a {
		t.Fatal("eval-mode dropout must be identity")
	}
}

func TestDropoutTrainScalesSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tp := NewTape()
	m := NewMatrix(100, 10)
	m.Fill(1)
	out := tp.Dropout(tp.Const(m), 0.3, true, rng).Value
	zeros, scaled := 0, 0
	for _, v := range out.Data {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-1/0.7) < 1e-12:
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	frac := float64(zeros) / float64(len(out.Data))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("drop fraction %v far from rate 0.3", frac)
	}
	if scaled == 0 {
		t.Fatal("no survivors")
	}
}

func TestBackwardAccumulatesIntoParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParam("p", NewRandN(2, 2, 1, rng))
	// Two uses of the same param in one graph: grads must add.
	tp := NewTape()
	n := tp.Param(p)
	out := tp.Sum(tp.Add(n, n))
	tp.Backward(out)
	for _, g := range p.Grad.Data {
		if g != 2 {
			t.Fatalf("grad = %v, want 2 (accumulated)", g)
		}
	}
	// Second backward pass accumulates again unless ZeroGrad is called.
	tp2 := NewTape()
	out2 := tp2.Sum(tp2.Param(p))
	tp2.Backward(out2)
	for _, g := range p.Grad.Data {
		if g != 3 {
			t.Fatalf("grad = %v, want 3 after second pass", g)
		}
	}
	p.ZeroGrad()
	for _, g := range p.Grad.Data {
		if g != 0 {
			t.Fatal("ZeroGrad failed")
		}
	}
}

func TestBackwardRejectsForeignRoot(t *testing.T) {
	tp1, tp2 := NewTape(), NewTape()
	n := tp1.Const(NewMatrix(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign root")
		}
	}()
	tp2.Backward(n)
}

func TestXavierRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewXavier(10, 20, rng)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier value %v outside [-%v, %v]", v, limit, limit)
		}
	}
}

func TestCrossEntropyAllIgnored(t *testing.T) {
	tp := NewTape()
	logits := tp.Const(NewMatrix(2, 3))
	out := tp.CrossEntropyMean(logits, []int{-1, -1})
	if out.Value.Data[0] != 0 {
		t.Fatalf("loss = %v, want 0 for fully-masked targets", out.Value.Data[0])
	}
}
