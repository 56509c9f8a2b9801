package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestBatchMatMulNTGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const batch, ra, rb, c = 3, 4, 5, 2
	a := randParam("a", batch*ra, c, rng)
	b := randParam("b", batch*rb, c, rng)
	// Weight the sum so every output element carries a distinct gradient.
	w := NewRandN(batch*ra, rb, 1, rng)
	build := func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.BatchMatMulNT(tp.Param(a), tp.Param(b), batch), tp.Const(w)))
	}
	runScalar(build, a, b)
	ga, gb := a.Grad.Clone(), b.Grad.Clone()
	loss := func() float64 { return runScalar(build, a, b) }
	numericalCheck(t, "batchNT/a", a, loss, ga)
	numericalCheck(t, "batchNT/b", b, loss, gb)
}

func TestBatchMatMulNNGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const batch, rw, rv, cv = 3, 4, 5, 2
	w := randParam("w", batch*rw, rv, rng)
	v := randParam("v", batch*rv, cv, rng)
	mix := NewRandN(batch*rw, cv, 1, rng)
	build := func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.BatchMatMulNN(tp.Param(w), tp.Param(v), batch), tp.Const(mix)))
	}
	runScalar(build, w, v)
	gw, gv := w.Grad.Clone(), v.Grad.Clone()
	loss := func() float64 { return runScalar(build, w, v) }
	numericalCheck(t, "batchNN/w", w, loss, gw)
	numericalCheck(t, "batchNN/v", v, loss, gv)
}

// TestBatchMatMulMatchesUnbatched pins the batched ops to the
// single-sequence graph they stand for: block i of a batch of four
// equals the same two products run on block i alone (a batch of one,
// whose NT values are checked against the plain a·bᵀ sum below), in
// both values and parameter gradients.
func TestBatchMatMulMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const batch, L, d = 4, 3, 5
	a := randParam("a", batch*L, d, rng)
	b := randParam("b", batch*L, d, rng)

	batched := runAttnProduct(a, b, func(tp *Tape, an, bn *Node) []*Node {
		s := tp.BatchMatMulNT(an, bn, batch)
		return []*Node{tp.BatchMatMulNN(tp.SoftmaxRows(s), bn, batch)}
	})
	gaB, gbB := a.Grad.Clone(), b.Grad.Clone()

	sequential := runAttnProduct(a, b, func(tp *Tape, an, bn *Node) []*Node {
		parts := make([]*Node, 0, batch)
		for i := 0; i < batch; i++ {
			ai := tp.SliceRows(an, i*L, (i+1)*L)
			bi := tp.SliceRows(bn, i*L, (i+1)*L)
			s := tp.BatchMatMulNT(ai, bi, 1)
			for r := 0; r < L; r++ {
				for c := 0; c < L; c++ {
					var want float64
					for k := 0; k < d; k++ {
						want += ai.Value.At(r, k) * bi.Value.At(c, k)
					}
					if got := s.Value.At(r, c); math.Abs(got-want) > 1e-12 {
						t.Fatalf("block %d: NT[%d,%d] = %g, want a·bᵀ = %g", i, r, c, got, want)
					}
				}
			}
			parts = append(parts, tp.MatMul(tp.SoftmaxRows(s), bi))
		}
		return parts
	})
	gaS, gbS := a.Grad.Clone(), b.Grad.Clone()

	const tol = 1e-12
	if d := maxAbsDiff(batched, sequential); d > tol {
		t.Fatalf("batched vs sequential values differ by %g", d)
	}
	if d := maxAbsDiff(gaB, gaS); d > tol {
		t.Fatalf("grad(a) differs by %g", d)
	}
	if d := maxAbsDiff(gbB, gbS); d > tol {
		t.Fatalf("grad(b) differs by %g", d)
	}
}

// runAttnProduct runs forward+backward over the sum of every part f
// returns and hands back the parts' values stacked by rows.
func runAttnProduct(a, b *Param, f func(tp *Tape, an, bn *Node) []*Node) *Matrix {
	a.ZeroGrad()
	b.ZeroGrad()
	tp := NewTape()
	parts := f(tp, tp.Param(a), tp.Param(b))
	loss := tp.Sum(parts[0])
	rows := parts[0].Value.Rows
	for _, p := range parts[1:] {
		loss = tp.Add(loss, tp.Sum(p))
		rows += p.Value.Rows
	}
	tp.Backward(loss)
	out := NewMatrix(rows, parts[0].Value.Cols)
	at := 0
	for _, p := range parts {
		copy(out.Data[at:], p.Value.Data)
		at += len(p.Value.Data)
	}
	return out
}

func maxAbsDiff(a, b *Matrix) float64 {
	if !a.SameShape(b) {
		return math.Inf(1)
	}
	var worst float64
	for i, x := range a.Data {
		if d := math.Abs(x - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}
