package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("lin", 4, 3, rng)
	tp := tensor.NewTape()
	x := tp.Const(tensor.NewRandN(5, 4, 1, rng))
	out := l.Forward(tp, x)
	if out.Value.Rows != 5 || out.Value.Cols != 3 {
		t.Fatalf("shape = %dx%d, want 5x3", out.Value.Rows, out.Value.Cols)
	}
}

func TestEmbeddingPadIsZeroAndUngradded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding("emb", 5, 3, rng)
	tp := tensor.NewTape()
	out := e.Lookup(tp, []int{0, 2, 99, -3}) // pad, valid, out-of-vocab, negative
	for _, r := range []int{0, 2, 3} {
		for c := 0; c < 3; c++ {
			if out.Value.At(r, c) != 0 {
				t.Fatalf("row %d should be zero (pad/unknown), got %v", r, out.Value)
			}
		}
	}
	loss := tp.Sum(tp.Square(out))
	tp.Backward(loss)
	for c := 0; c < 3; c++ {
		if e.Table.Grad.At(0, c) != 0 {
			t.Fatal("pad row must not receive gradient")
		}
		if e.Table.Grad.At(2, c) == 0 {
			t.Fatal("looked-up row must receive gradient")
		}
	}
}

func TestBuildMaskShapes(t *testing.T) {
	const L = 4
	full := BuildMask(MaskFull, L)
	for _, v := range full.Data {
		if v != 0 {
			t.Fatal("full mask must be all zeros")
		}
	}
	fut := BuildMask(MaskFuture, L)
	for i := 0; i < L; i++ {
		for j := 0; j < L; j++ {
			blocked := fut.At(i, j) != 0
			if blocked != (j > i) {
				t.Fatalf("future mask (%d,%d) blocked=%v", i, j, blocked)
			}
		}
	}
	bid := BuildMask(MaskBidirectionalExceptSelf, L)
	for i := 0; i < L; i++ {
		for j := 0; j < L; j++ {
			blocked := bid.At(i, j) != 0
			if blocked != (j == i+1) {
				t.Fatalf("bidirectional mask (%d,%d) blocked=%v", i, j, blocked)
			}
		}
	}
}

// The paper's core claim about the mask: position i's output must not be
// influenced by input i+1 (its own training target). Verify by zeroing
// gradient flow: perturbing input row i+1 must not change output row i.
func TestMaskBlocksTargetLeakage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	att := NewMultiHeadAttention("att", 8, 2, MaskBidirectionalExceptSelf, rng)
	const L = 5
	base := tensor.NewRandN(L, 8, 1, rng)

	outAt := func(m *tensor.Matrix, r int) []float64 {
		tp := tensor.NewTape()
		out := forwardAtt(att, tp, tp.Const(m))
		return append([]float64(nil), out.Value.Row(r)...)
	}
	for i := 0; i < L-1; i++ {
		perturbed := base.Clone()
		for c := 0; c < 8; c++ {
			perturbed.Set(i+1, c, perturbed.At(i+1, c)+10)
		}
		a, b := outAt(base, i), outAt(perturbed, i)
		for c := range a {
			if math.Abs(a[c]-b[c]) > 1e-9 {
				t.Fatalf("output %d leaked information from input %d", i, i+1)
			}
		}
	}
	// Sanity: a non-target input change must affect the output.
	perturbed := base.Clone()
	perturbed.Set(0, 0, perturbed.At(0, 0)+10)
	a, b := outAt(base, 2), outAt(perturbed, 2)
	same := true
	for c := range a {
		if math.Abs(a[c]-b[c]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Fatal("attention appears to ignore its context entirely")
	}
}

func TestFutureMaskBlocksFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	att := NewMultiHeadAttention("att", 4, 1, MaskFuture, rng)
	const L = 4
	base := tensor.NewRandN(L, 4, 1, rng)
	outRow := func(m *tensor.Matrix, r int) []float64 {
		tp := tensor.NewTape()
		out := forwardAtt(att, tp, tp.Const(m))
		return append([]float64(nil), out.Value.Row(r)...)
	}
	perturbed := base.Clone()
	perturbed.Set(3, 0, perturbed.At(3, 0)+5) // change the last input
	a, b := outRow(base, 1), outRow(perturbed, 1)
	for c := range a {
		if math.Abs(a[c]-b[c]) > 1e-9 {
			t.Fatal("future mask leaked future input")
		}
	}
}

func TestAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	att := NewMultiHeadAttention("att", 6, 2, MaskBidirectionalExceptSelf, rng)
	x := tensor.NewParam("x", tensor.NewRandN(4, 6, 1, rng))
	params := append(att.Params(), x)
	run := func() float64 {
		ZeroGrads(params)
		tp := tensor.NewTape()
		out := forwardAtt(att, tp, tp.Param(x))
		loss := tp.Sum(tp.Square(out))
		tp.Backward(loss)
		return loss.Value.Data[0]
	}
	run()
	for _, p := range params {
		analytic := p.Grad.Clone()
		const h = 1e-5
		for i := 0; i < len(p.Value.Data); i += 3 { // sample every 3rd entry
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := run()
			p.Value.Data[i] = orig - h
			down := run()
			p.Value.Data[i] = orig
			want := (up - down) / (2 * h)
			if math.Abs(want-analytic.Data[i]) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d]=%g want %g", p.Name, i, analytic.Data[i], want)
			}
		}
	}
}

func TestLayerNormFFNGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ln := NewLayerNorm("ln", 5)
	ffn := NewFeedForward("ffn", 5, 5, rng)
	x := tensor.NewParam("x", tensor.NewRandN(3, 5, 1, rng))
	params := append(CollectParams(ln, ffn), x)
	run := func() float64 {
		ZeroGrads(params)
		tp := tensor.NewTape()
		xn := tp.Param(x)
		out := Residual(tp, ln, xn, ffn.Forward(tp, xn), 0, false, rng)
		loss := tp.Sum(tp.Square(out))
		tp.Backward(loss)
		return loss.Value.Data[0]
	}
	run()
	for _, p := range params {
		analytic := p.Grad.Clone()
		const h = 1e-5
		for i := 0; i < len(p.Value.Data); i += 2 {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := run()
			p.Value.Data[i] = orig - h
			down := run()
			p.Value.Data[i] = orig
			want := (up - down) / (2 * h)
			if math.Abs(want-analytic.Data[i]) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d]=%g want %g", p.Name, i, analytic.Data[i], want)
			}
		}
	}
}

func TestLSTMLearnsAlternation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const vocab, hidden = 2, 8
	cell := NewLSTMCell("lstm", vocab, hidden, rng)
	head := NewLinear("head", hidden, vocab, rng)
	params := CollectParams(cell, head)
	opt := NewAdam(0.05)

	seq := []int{0, 1, 0, 1, 0, 1, 0, 1}
	oneHot := func(tp *tensor.Tape, k int) *tensor.Node {
		m := tensor.NewMatrix(1, vocab)
		m.Data[k] = 1
		return tp.Const(m)
	}
	var last float64
	for epoch := 0; epoch < 150; epoch++ {
		tp2 := tensor.NewTape()
		var h2, c2 *tensor.Node
		var loss *tensor.Node
		for i, k := range seq[:len(seq)-1] {
			h2, c2 = cell.Step(tp2, oneHot(tp2, k), h2, c2)
			lg := head.Forward(tp2, h2)
			l := tp2.CrossEntropyMean(lg, []int{seq[i+1]})
			if loss == nil {
				loss = l
			} else {
				loss = tp2.Add(loss, l)
			}
		}
		tp2.Backward(loss)
		opt.Step(params)
		last = loss.Value.Data[0]
	}
	if last > 0.5 {
		t.Fatalf("LSTM failed to learn alternation, loss=%v", last)
	}
}

func TestSGDAndAdamConverge(t *testing.T) {
	type optimizer interface{ Step([]*tensor.Param) }
	for _, tc := range []struct {
		name string
		mk   func() optimizer
	}{
		{"sgd", func() optimizer { return NewSGD(0.1, 0) }},
		{"sgd-momentum", func() optimizer { return NewSGD(0.05, 0.9) }},
		{"adam", func() optimizer { return NewAdam(0.1) }},
	} {
		p := tensor.NewParam("p", tensor.FromSlice(1, 2, []float64{5, -3}))
		opt := tc.mk()
		for i := 0; i < 300; i++ {
			tp := tensor.NewTape()
			loss := tp.Sum(tp.Square(tp.Param(p)))
			tp.Backward(loss)
			opt.Step([]*tensor.Param{p})
		}
		for _, v := range p.Value.Data {
			if math.Abs(v) > 1e-2 {
				t.Fatalf("%s did not converge: %v", tc.name, p.Value.Data)
			}
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := tensor.NewParam("p", tensor.NewMatrix(1, 2))
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*tensor.Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	var after float64
	for _, g := range p.Grad.Data {
		after += g * g
	}
	if math.Abs(math.Sqrt(after)-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", math.Sqrt(after))
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l1 := NewLinear("a", 3, 4, rng)
	l2 := NewLinear("b", 4, 2, rng)
	params := CollectParams(l1, l2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	// Perturb, then restore.
	want := make([][]float64, len(params))
	for i, p := range params {
		want[i] = append([]float64(nil), p.Value.Data...)
		p.Value.Fill(99)
	}
	if err := LoadParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		for j, v := range p.Value.Data {
			if v != want[i][j] {
				t.Fatalf("param %s not restored", p.Name)
			}
		}
	}
}

func TestLoadParamsRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := NewLinear("a", 3, 4, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewLinear("zz", 3, 4, rng)
	if err := LoadParams(&buf, other.Params()); err == nil {
		t.Fatal("expected name-mismatch error")
	}
	var buf2 bytes.Buffer
	if err := SaveParams(&buf2, src.Params()); err != nil {
		t.Fatal(err)
	}
	wrongShape := NewLinear("a", 4, 4, rng)
	if err := LoadParams(&buf2, wrongShape.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}

	// Hand-built blob sets: a blob whose data disagrees with its declared
	// shape, and one that stores a parameter twice and omits another
	// (which would leave the omitted one at its random init).
	good := src.Params()
	blobs := func(edit func([]paramBlob)) *bytes.Buffer {
		bs := make([]paramBlob, len(good))
		for i, p := range good {
			bs[i] = paramBlob{Name: p.Name, Rows: p.Value.Rows, Cols: p.Value.Cols, Data: p.Value.Data}
		}
		edit(bs)
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(bs); err != nil {
			t.Fatal(err)
		}
		return &b
	}
	short := blobs(func(bs []paramBlob) { bs[0].Data = bs[0].Data[:len(bs[0].Data)-1] })
	if err := LoadParams(short, NewLinear("a", 3, 4, rng).Params()); err == nil {
		t.Fatal("expected data-length error for a blob shorter than its shape")
	}
	twice := blobs(func(bs []paramBlob) { bs[1] = bs[0] })
	if err := LoadParams(twice, NewLinear("a", 3, 4, rng).Params()); err == nil {
		t.Fatal("expected error for a parameter stored twice and another missing")
	}
}

func TestMultiHeadRejectsIndivisibleHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 7 dims / 2 heads")
		}
	}()
	NewMultiHeadAttention("att", 7, 2, MaskFull, rng)
}

func TestAttentionWeightsCaptured(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	att := NewMultiHeadAttention("att", 4, 2, MaskBidirectionalExceptSelf, rng)
	input := tensor.NewRandN(3, 4, 1, rng)
	tp := tensor.NewTape()
	forwardAtt(att, tp, tp.Const(input))
	if att.LastWeights() != nil {
		t.Fatal("weights captured without Capture enabled")
	}
	att.Capture = true
	tp = tensor.NewTape()
	forwardAtt(att, tp, tp.Const(input))
	ws := att.LastWeights()
	if len(ws) != 2 {
		t.Fatalf("weights for %d heads, want 2", len(ws))
	}
	for _, w := range ws {
		if w.Rows != 3 || w.Cols != 3 {
			t.Fatalf("weight shape %dx%d, want 3x3", w.Rows, w.Cols)
		}
		for r := 0; r < 3; r++ {
			var sum float64
			for _, v := range w.Row(r) {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("attention row %d sums to %v", r, sum)
			}
		}
		// Masked cell (0,1) must carry ~zero weight.
		if w.At(0, 1) > 1e-6 {
			t.Fatalf("masked cell has weight %v", w.At(0, 1))
		}
	}
}

// forwardAtt runs att over e under the layer's own mask kind.
func forwardAtt(att *MultiHeadAttention, tp *tensor.Tape, e *tensor.Node) *tensor.Node {
	return att.Forward(tp, e, BuildMask(att.Mask, e.Value.Rows))
}
