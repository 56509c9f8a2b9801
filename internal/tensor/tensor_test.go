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
	a, b := NewMatrix(2, 3), NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for incompatible matmul shapes")
		}
	}()
	MatMulInto(NewMatrix(2, 3), a, b)
}

func TestMatMulValues(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	out := NewMatrix(2, 2)
	MatMulInto(out, a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("matmul = %v, want %v", out.Data, want)
		}
	}
}

// Property: a softmax row (SoftmaxInto, in place) is a probability
// distribution.
func TestSoftmaxRowsIsDistribution(t *testing.T) {
	f := func(vals [12]float64) bool {
		data := make([]float64, 12)
		for i, v := range vals {
			data[i] = math.Mod(v, 30) // keep exp() finite
			if math.IsNaN(data[i]) {
				data[i] = 0
			}
		}
		out := FromSlice(3, 4, data)
		for r := 0; r < 3; r++ {
			SoftmaxInto(out.Row(r), out.Row(r))
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

// Property: StandardizeRow output has ~zero mean and ~unit variance.
func TestNormalizeRowsMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	out := NewMatrix(4, 8)
	for trial := 0; trial < 50; trial++ {
		a := NewRandN(4, 8, 3, rng)
		for r := 0; r < out.Rows; r++ {
			StandardizeRow(out.Row(r), a.Row(r), 1e-8)
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

// TestDropoutEvalIsIdentity: at rate 0 every multiplier is exactly 1.
// (Evaluation passes rate 0 and skips the mask altogether.)
func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mult := make([]float64, 9)
	DropoutMask(mult, 0, rng)
	for i, k := range mult {
		if k != 1 {
			t.Fatalf("rate-0 multiplier %d is %v", i, k)
		}
	}
}

func TestDropoutTrainScalesSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mult := make([]float64, 1000)
	DropoutMask(mult, 0.3, rng)
	zeros, scaled := 0, 0
	for _, v := range mult {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-1/0.7) < 1e-12:
			scaled++
		default:
			t.Fatalf("unexpected dropout multiplier %v", v)
		}
	}
	frac := float64(zeros) / float64(len(mult))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("drop fraction %v far from rate 0.3", frac)
	}
	if scaled == 0 {
		t.Fatal("no survivors")
	}
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

// TestMatMul64AsmMatchesGeneric: the four float64 matmul primitives
// (the packed-SSE2 row kernels on amd64) agree bit for bit with the
// portable kernels — MatMulInto with the row driver over gemvGeneric —
// over ragged shapes (k- and lane-tails), inputs with all-zero rows and
// scattered zeros and -0s (the per-row quartet skips), shapes past the
// stack scratch, and accumulation into a non-zero dst.
func TestMatMul64AsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	randMat := func(r, c int) *Matrix {
		m := NewRandN(r, c, 1, rng)
		for i := range m.Data {
			switch rng.Intn(10) {
			case 0:
				m.Data[i] = 0
			case 1:
				m.Data[i] = math.Copysign(0, -1)
			}
		}
		if r > 1 {
			clear(m.Row(rng.Intn(r)))
		}
		return m
	}
	same := func(what string, got, want *Matrix) {
		t.Helper()
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: element %d is %x, generic kernel %x", what, i, math.Float64bits(got.Data[i]), math.Float64bits(v))
			}
		}
	}
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {30, 64, 64}, {8, 30, 30}, {17, 9, 70}, {5, 300, 3}, {2, 3, 300}, {70, 70, 70}, {9, 24, 33}}
	for trial := 0; trial < 40; trial++ {
		s := shapes[trial%len(shapes)]
		if trial >= len(shapes) {
			s = [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)}
		}
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(m, k), randMat(k, n)
		got, want := NewMatrix(m, n), NewMatrix(m, n)
		MatMulInto(got, a, b)
		matMul(want, a, b, gemvGeneric[float64])
		same("MatMulInto", got, want)

		seed := NewRandN(m, n, 1, rng)
		got, want = seed.Clone(), seed.Clone()
		AddMatMul(got, a, b)
		addMatMulGeneric(want, a, b)
		same("AddMatMul", got, want)

		bt := randMat(n, k) // a·btᵀ is m x n
		got, want = seed.Clone(), seed.Clone()
		AddMatMulTransposeB(got, a, bt)
		addMatMulTBGeneric(want, a, bt)
		same("AddMatMulTransposeB", got, want)

		at := randMat(k, m) // atᵀ·b is m x n
		got, want = seed.Clone(), seed.Clone()
		AddMatMulTransposeA(got, at, b)
		addMatMulTAGeneric(want, at, b)
		same("AddMatMulTransposeA", got, want)
	}
}
