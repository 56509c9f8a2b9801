package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// softmaxTestRow draws n attention-like scores; every fourth trial gets
// a masked (-1e9) entry and one in six is masked everywhere but one
// position.
func softmaxTestRow(rng *rand.Rand, n, trial int) []float32 {
	row := make([]float32, n)
	for i := range row {
		row[i] = float32(rng.NormFloat64() * 3)
	}
	if trial%4 == 1 {
		row[rng.Intn(n)] = -1e9
	}
	if trial%6 == 5 {
		keep := rng.Intn(n)
		for i := range row {
			if i != keep {
				row[i] = -1e9
			}
		}
	}
	return row
}

// TestSoftmax32AsmMatchesGeneric pins the build-tagged assembly softmax
// to its portable twin bitwise, over every lane tail (n = 1…33), rows
// with a masked entry and rows masked everywhere but one position, in
// place and into a separate destination.
func TestSoftmax32AsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 33; n++ {
		for trial := 0; trial < 24; trial++ {
			src := softmaxTestRow(rng, n, trial)
			want := make([]float32, n)
			softmax32Generic(want, src)
			got := make([]float32, n+1)
			got[n] = 42 // must not be written
			SoftmaxInto32(got, src)
			inPlace := append([]float32(nil), src...)
			SoftmaxInto32(inPlace, inPlace)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(inPlace[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d trial %d elem %d: asm %v / in place %v != generic %v (src %v)",
						n, trial, i, got[i], inPlace[i], want[i], src)
				}
			}
			if got[n] != 42 {
				t.Fatalf("n=%d: wrote past len(src)", n)
			}
		}
	}
	SoftmaxInto32(nil, nil) // the empty row is a no-op
}

// TestSoftmax32Accuracy holds the float32 softmax to the float64 one.
// The exponential alone, lane by lane and before any division: within
// 2e-7 relative of math.Exp on [-87, 0], exactly 1 at 0 and exactly +0
// below -87. Whole rows: a masked score gets exactly +0 weight, every
// weight is within 1e-6 of the float64 softmax, and rows sum to 1
// within 1e-6.
func TestSoftmax32Accuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var worst float64
	var e, x, sum [4]float32
	for trial := 0; trial < 100000; trial++ {
		for i := range x {
			x[i] = float32(-87 * rng.Float64())
		}
		expLanes32(&e, &x, 0, &sum)
		for i, v := range x {
			ref := math.Exp(float64(v))
			if rel := math.Abs(float64(e[i])-ref) / ref; rel > worst {
				worst = rel
			}
		}
	}
	if worst > 2e-7 {
		t.Errorf("exp: worst relative error %g on [-87, 0], want <= 2e-7", worst)
	}
	x = [4]float32{0, -87.5, -1e9, float32(math.Inf(-1))}
	expLanes32(&e, &x, 0, &sum)
	if e != [4]float32{1, 0, 0, 0} {
		t.Errorf("exp(0, -87.5, -1e9, -Inf) = %v, want [1 0 0 0]", e)
	}

	for n := 2; n <= 33; n++ {
		src := softmaxTestRow(rng, n, 0)
		masked := rng.Intn(n)
		src[masked] = -1e9
		got := make([]float32, n)
		SoftmaxInto32(got, src)
		ref := make([]float64, n)
		for i, v := range src {
			ref[i] = float64(v)
		}
		SoftmaxInto(ref, ref)
		var total float64
		for i, w := range got {
			total += float64(w)
			if d := math.Abs(float64(w) - ref[i]); d > 1e-6 {
				t.Fatalf("n=%d elem %d: weight %v vs float64 %v", n, i, w, ref[i])
			}
		}
		if got[masked] != 0 || math.Signbit(float64(got[masked])) {
			t.Fatalf("n=%d: masked score got weight %v, want exactly +0", n, got[masked])
		}
		if math.Abs(total-1) > 1e-6 {
			t.Fatalf("n=%d: weights sum to %v", n, total)
		}
	}
}
