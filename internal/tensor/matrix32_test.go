package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randMat returns a float64 matrix with N(0,1) entries.
func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// maxRelDiff64v32 compares a float32 result against the float64
// reference, scaled by the reference magnitude.
func maxRelDiff64v32(ref *Matrix, got *Matrix32) float64 {
	var worst float64
	for i, v := range ref.Data {
		d := math.Abs(v - float64(got.Data[i]))
		scale := math.Max(1, math.Abs(v))
		if r := d / scale; r > worst {
			worst = r
		}
	}
	return worst
}

func TestMatrix32From(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(3, 5, rng)
	a32 := Matrix32From(a)
	if a32.Rows != 3 || a32.Cols != 5 {
		t.Fatalf("shape %dx%d", a32.Rows, a32.Cols)
	}
	for i, v := range a.Data {
		if a32.Data[i] != float32(v) {
			t.Fatalf("element %d: %v != float32(%v)", i, a32.Data[i], v)
		}
	}
}

func TestMatMulInto32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Sweep shapes that exercise every blocking path: row remainders
	// 0..3 of the 4-row kernel and k remainders 0..3 of the quartet loop.
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		for _, inner := range []int{1, 3, 4, 6, 8, 17} {
			for _, cols := range []int{1, 2, 5, 16} {
				a := randMat(rows, inner, rng)
				b := randMat(inner, cols, rng)
				ref := NewMatrix(rows, cols)
				MatMulInto(ref, a, b)
				got := NewMatrix32(rows, cols)
				MatMulInto32(got, Matrix32From(a), Matrix32From(b))
				if d := maxRelDiff64v32(ref, got); d > 1e-5 {
					t.Fatalf("(%dx%d)·(%dx%d): rel diff %g", rows, inner, inner, cols, d)
				}
			}
		}
	}
}

func TestMatMulInto32SkipsZeroRows(t *testing.T) {
	// Padded (all-zero) activation rows must produce exactly zero output
	// — the float32 kernel keeps the float64 kernel's zero-quartet skip.
	rng := rand.New(rand.NewSource(3))
	a := randMat(6, 8, rng)
	for k := 0; k < 8; k++ {
		a.Set(2, k, 0)
		a.Set(5, k, 0)
	}
	b := randMat(8, 4, rng)
	got := NewMatrix32(6, 4)
	MatMulInto32(got, Matrix32From(a), Matrix32From(b))
	for _, r := range []int{2, 5} {
		for _, v := range got.Row(r) {
			if v != 0 {
				t.Fatalf("zero input row %d produced nonzero output %v", r, v)
			}
		}
	}
}

func TestMatMulInto32OverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMat(4, 4, rng), randMat(4, 4, rng)
	got := NewMatrix32(4, 4)
	for i := range got.Data {
		got.Data[i] = 42 // stale scratch contents
	}
	MatMulInto32(got, Matrix32From(a), Matrix32From(b))
	ref := NewMatrix(4, 4)
	MatMulInto(ref, a, b)
	if d := maxRelDiff64v32(ref, got); d > 1e-5 {
		t.Fatalf("stale dst leaked into result: rel diff %g", d)
	}
}

func TestMatMul32ShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMulInto32(NewMatrix32(2, 2), NewMatrix32(2, 3), NewMatrix32(2, 2))
}

// TestMatMul32AsmMatchesGeneric pins the build-tagged assembly path to
// the portable kernel bitwise, across shapes that exercise the packed
// loop, the scalar tail, and the zero-quartet skip.
func TestMatMul32AsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 4, 8}, {3, 10, 30}, {5, 64, 192}, {7, 13, 9}, {16, 64, 64}, {2, 8, 1}} {
		ar, n, bc := dims[0], dims[1], dims[2]
		a := NewMatrix32(ar, n)
		b := NewMatrix32(n, bc)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
		}
		// Zero a few full quartets to exercise the skip path.
		for k := 0; k+4 <= n; k += 8 {
			for _, row := range []int{0, ar - 1} {
				copy(a.Row(row)[k:k+4], make([]float32, 4))
			}
		}
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		got := NewMatrix32(ar, bc)
		MatMulInto32(got, a, b)
		want := NewMatrix32(ar, bc)
		matMul32Generic(want, a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%dx%d: elem %d: asm %v != generic %v", ar, n, bc, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestAttnKernels8 checks the packed per-row attention kernels against
// plain Go loops, over strides and row counts including the empty row.
func TestAttnKernels8(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, stride int }{{0, 24}, {1, 8}, {7, 24}, {30, 192}, {13, 9}} {
		q := make([]float32, 8)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		need := 8
		if tc.n > 0 {
			need = (tc.n-1)*tc.stride + 8
		}
		k := make([]float32, need)
		for i := range k {
			k[i] = float32(rng.NormFloat64())
		}
		got := make([]float32, tc.n)
		QKScores8(got, q, k, tc.stride)
		for j := 0; j < tc.n; j++ {
			var want float32
			for c := 0; c < 8; c++ {
				want += q[c] * k[j*tc.stride+c]
			}
			if diff := float64(got[j] - want); diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("QKScores8 n=%d stride=%d j=%d: got %v want %v", tc.n, tc.stride, j, got[j], want)
			}
		}

		w := make([]float32, tc.n)
		for i := range w {
			w[i] = float32(rng.Float64())
		}
		out := make([]float32, 8)
		wantOut := make([]float32, 8)
		for i := range out {
			out[i] = float32(rng.NormFloat64())
			wantOut[i] = out[i]
		}
		AttnV8(out, w, k, tc.stride)
		for j, wv := range w {
			for c := 0; c < 8; c++ {
				wantOut[c] += wv * k[j*tc.stride+c]
			}
		}
		for c := range out {
			if out[c] != wantOut[c] {
				t.Fatalf("AttnV8 n=%d stride=%d lane=%d: got %v want %v", tc.n, tc.stride, c, out[c], wantOut[c])
			}
		}
	}
}
