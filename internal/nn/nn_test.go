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
	l.B.Value.Data[1] = 0.5
	x := tensor.NewRandN(5, 4, 1, rng)
	out := tensor.NewMatrix(5, 3)
	l.Forward(out, x)
	for r := 0; r < 5; r++ {
		for c := 0; c < 3; c++ {
			want := l.B.Value.Data[c]
			for k := 0; k < 4; k++ {
				want += x.At(r, k) * l.W.Value.At(k, c)
			}
			if math.Abs(out.At(r, c)-want) > 1e-12 {
				t.Fatalf("out[%d,%d] = %v, want x·W + b = %v", r, c, out.At(r, c), want)
			}
		}
	}
}

func TestEmbeddingPadIsZeroAndUngradded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding("emb", 5, 3, rng)
	keys := []int{0, 2, 99, -3} // pad, valid, out-of-vocab, negative
	out := tensor.NewMatrix(4, 3)
	e.Forward(out, keys)
	for _, r := range []int{0, 2, 3} {
		for c := 0; c < 3; c++ {
			if out.At(r, c) != 0 {
				t.Fatalf("row %d should be zero (pad/unknown), got %v", r, out)
			}
		}
	}
	g := tensor.NewMatrix(4, 3) // the gradient of Σ out²
	for i, v := range out.Data {
		g.Data[i] = 2 * v
	}
	g.Row(0)[0] = 1 // a pad row's gradient must not land anywhere
	e.Backward(ParamGrads(e.Params()), keys, g)
	for c := 0; c < 3; c++ {
		if e.Table.Grad.At(0, c) != 0 {
			t.Fatal("pad row must not receive gradient")
		}
		if e.Table.Grad.At(2, c) == 0 {
			t.Fatal("looked-up row must receive gradient")
		}
	}
}

// TestEmbeddingGradCheck: Embedding.Backward scatters each read's
// gradient into the row it read, over repeated and pad keys, checked by
// finite differences of Σ w ⊙ out; rows no key read take no gradient.
func TestEmbeddingGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := NewEmbedding("emb", 6, 4, rng)
	keys := []int{2, 0, 2, 5, -1} // repeated and padding keys
	w := tensor.NewRandN(5, 4, 1, rng)
	out := tensor.NewMatrix(5, 4)
	loss := func() float64 {
		e.Forward(out, keys)
		var s float64
		for i, v := range out.Data {
			s += v * w.Data[i]
		}
		return s
	}
	gr := zeroGrads(e.Params())
	e.Backward(gr, keys, w)
	checkGrads(t, e.Params(), gr, loss)
	for _, r := range []int{0, 1, 3, 4} {
		for _, v := range gr.Of(e.Table).Row(r) {
			if v != 0 {
				t.Fatalf("row %d no key read has gradient %v", r, gr.Of(e.Table).Row(r))
			}
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

// forwardAtt runs att over x under mask and returns MH(x).
func forwardAtt(att *MultiHeadAttention, x, mask *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(x.Rows, x.Cols)
	att.Forward(new(AttentionState), out, x, mask)
	return out
}

// The paper's core claim about the mask: position i's output must not be
// influenced by input i+1 (its own training target): perturbing input
// row i+1 must not change output row i.
func TestMaskBlocksTargetLeakage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	att := NewMultiHeadAttention("att", 8, 2, rng)
	const L = 5
	mask := BuildMask(MaskBidirectionalExceptSelf, L)
	base := tensor.NewRandN(L, 8, 1, rng)

	outAt := func(m *tensor.Matrix, r int) []float64 { return forwardAtt(att, m, mask).Row(r) }
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
	att := NewMultiHeadAttention("att", 4, 1, rng)
	const L = 4
	mask := BuildMask(MaskFuture, L)
	base := tensor.NewRandN(L, 4, 1, rng)
	outRow := func(m *tensor.Matrix, r int) []float64 { return forwardAtt(att, m, mask).Row(r) }
	perturbed := base.Clone()
	perturbed.Set(3, 0, perturbed.At(3, 0)+5) // change the last input
	a, b := outRow(base, 1), outRow(perturbed, 1)
	for c := range a {
		if math.Abs(a[c]-b[c]) > 1e-9 {
			t.Fatal("future mask leaked future input")
		}
	}
}

// checkGrads compares every parameter's buffer in gr, filled by a
// backward pass, against central finite differences of loss.
func checkGrads(t *testing.T, params []*tensor.Param, gr *Grads, loss func() float64) {
	t.Helper()
	const h = 1e-5
	for _, p := range params {
		analytic := gr.Of(p)
		for i, orig := range p.Value.Data {
			p.Value.Data[i] = orig + h
			up := loss()
			p.Value.Data[i] = orig - h
			down := loss()
			p.Value.Data[i] = orig
			want := (up - down) / (2 * h)
			if math.Abs(want-analytic.Data[i]) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d]=%g want %g", p.Name, i, analytic.Data[i], want)
			}
		}
	}
}

// zeroGrads pairs every parameter with a zero gradient buffer.
func zeroGrads(params []*tensor.Param) *Grads {
	bufs := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		bufs[i] = tensor.NewMatrix(p.Value.Rows, p.Value.Cols)
	}
	return NewGrads(params, bufs)
}

// TestAttentionGradCheck: MultiHeadAttention.Backward is the gradient of
// Forward with respect to all four projections and the input, checked
// by finite differences of Σ MH(x)² under the paper's mask.
func TestAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	att := NewMultiHeadAttention("att", 6, 2, rng)
	x := tensor.NewParam("x", tensor.NewRandN(4, 6, 1, rng))
	mask := BuildMask(MaskBidirectionalExceptSelf, 4)
	var st AttentionState
	out := tensor.NewMatrix(4, 6)
	loss := func() float64 {
		att.Forward(&st, out, x.Value, mask)
		var s float64
		for _, v := range out.Data {
			s += v * v
		}
		return s
	}
	params := append(att.Params(), x)
	gr := zeroGrads(params)
	loss()
	gout := out.Clone()
	for i, v := range gout.Data {
		gout.Data[i] = 2 * v
	}
	att.Backward(&st, gr.Of(x), gout, gr)
	checkGrads(t, params, gr, loss)
}

// TestLayerNormFFNGradCheck: LayerNorm.Backward and FeedForward.Backward
// compose into the gradient of a residual sub-layer, LN(x + FFN(x)),
// with respect to the gain, the bias, both FFN layers and the input,
// checked by finite differences of Σ w ⊙ LN(x + FFN(x)).
func TestLayerNormFFNGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ln := NewLayerNorm("ln", 5)
	ffn := NewFeedForward("ffn", 5, 5, rng)
	x := tensor.NewParam("x", tensor.NewRandN(3, 5, 1, rng))
	w := tensor.NewRandN(3, 5, 1, rng)
	params := append(CollectParams(ln, ffn), x)
	for _, p := range params[:len(params)-1] { // move the gain, bias and FFN biases off their init
		for i := range p.Value.Data {
			p.Value.Data[i] += 0.1 * rng.NormFloat64()
		}
	}
	var nst NormState
	var fst FFNState
	sum, out := tensor.NewMatrix(3, 5), tensor.NewMatrix(3, 5)
	loss := func() float64 {
		ffn.Forward(&fst, sum, x.Value)
		tensor.AddInto(sum, x.Value)
		ln.Forward(&nst, out, sum)
		var s float64
		for i, v := range out.Data {
			s += v * w.Data[i]
		}
		return s
	}
	gr := zeroGrads(params)
	loss()
	da := tensor.NewMatrix(3, 5)
	ln.Backward(&nst, da, w, gr)
	tensor.AddInto(gr.Of(x), da) // the residual path
	ffn.Backward(&fst, gr.Of(x), da, gr)
	checkGrads(t, params, gr, loss)
}

// TestLinearGradCheck: Linear.Backward is the gradient of Forward with
// respect to W, b and the input, checked by finite differences of
// Σ w ⊙ (x·W + b).
func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLinear("lin", 4, 3, rng)
	x := tensor.NewParam("x", tensor.NewRandN(5, 4, 1, rng))
	w := tensor.NewRandN(5, 3, 1, rng)
	out := tensor.NewMatrix(5, 3)
	loss := func() float64 {
		l.Forward(out, x.Value)
		var s float64
		for i, v := range out.Data {
			s += v * w.Data[i]
		}
		return s
	}
	params := append(l.Params(), x)
	gr := zeroGrads(params)
	loss()
	l.Backward(gr.Of(x), x.Value, w, gr)
	checkGrads(t, params, gr, loss)
}

// TestLSTMGradCheck: LSTMCell.Backward is the gradient through time of
// Forward's last hidden state with respect to Wx, Wh, B and every input
// row, checked by finite differences of Σ w ⊙ h_T over four steps.
func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cell := NewLSTMCell("lstm", 3, 5, rng)
	x := tensor.NewParam("x", tensor.NewRandN(4, 3, 1, rng))
	w := tensor.NewRandN(1, 5, 1, rng)
	for i := range cell.B.Value.Data { // move the gate biases off their init
		cell.B.Value.Data[i] += 0.1 * rng.NormFloat64()
	}
	var st LSTMState
	loss := func() float64 {
		var s float64
		for i, v := range cell.Forward(&st, x.Value).Data {
			s += v * w.Data[i]
		}
		return s
	}
	params := append(cell.Params(), x)
	gr := zeroGrads(params)
	loss()
	cell.Backward(&st, gr.Of(x), w, gr)
	checkGrads(t, params, gr, loss)
}

// TestLSTMLearnsAlternation: the cell and a linear head, trained with
// Adam on the next-key cross-entropy of every prefix of an alternating
// sequence, learn to predict it.
func TestLSTMLearnsAlternation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const vocab, hidden = 2, 8
	cell := NewLSTMCell("lstm", vocab, hidden, rng)
	head := NewLinear("head", hidden, vocab, rng)
	params := CollectParams(cell, head)
	gr := ParamGrads(params)
	opt := NewAdam(0.05)

	seq := []int{0, 1, 0, 1, 0, 1, 0, 1}
	var st LSTMState
	logits, g := tensor.NewMatrix(1, vocab), tensor.NewMatrix(1, vocab)
	gh := tensor.NewMatrix(1, hidden)
	var last float64
	for epoch := 0; epoch < 150; epoch++ {
		last = 0
		for n := 1; n < len(seq); n++ {
			x := tensor.NewMatrix(n, vocab) // one-hot rows of seq[:n]
			for i, k := range seq[:n] {
				x.Set(i, k, 1)
			}
			h := cell.Forward(&st, x)
			head.Forward(logits, h)
			last += tensor.CrossEntropyRow(g.Data, logits.Data, seq[n])
			gh.Zero()
			head.Backward(gh, h, g, gr)
			cell.Backward(&st, tensor.NewMatrix(n, vocab), gh, gr)
		}
		opt.Step(params)
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
			for j, v := range p.Value.Data { // the gradient of Σ p²
				p.Grad.Data[j] = 2 * v
			}
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
	NewMultiHeadAttention("att", 7, 2, rng)
}
