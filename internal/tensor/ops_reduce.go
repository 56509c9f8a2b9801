package tensor

import "math"

// Sum reduces a to a 1x1 scalar node.
func (t *Tape) Sum(a *Node) *Node {
	checkSameTape(t, a)
	var s float64
	for _, x := range a.Value.Data {
		s += x
	}
	out := FromSlice(1, 1, []float64{s})
	n := t.node(out, a.requiresGrad, nil)
	n.back = func() {
		if !a.requiresGrad {
			return
		}
		ensureGrad(a)
		g := n.Grad.Data[0]
		for i := range a.Grad.Data {
			a.Grad.Data[i] += g
		}
	}
	return n
}

// Mean reduces a to its scalar mean.
func (t *Tape) Mean(a *Node) *Node {
	return t.Scale(t.Sum(a), 1/float64(len(a.Value.Data)))
}

// SoftmaxInto writes a numerically-stable softmax(src) into dst (which
// may alias src): the attention rows of the float64 scoring kernel and
// of the training step (the float32 kernel's is SoftmaxInto32). The exponential runs in float64 whatever T is, so a
// masked term's exp(-1e9 - max) underflows to exactly 0.
func SoftmaxInto[T Float](dst, src []T) {
	maxv := T(math.Inf(-1))
	for _, x := range src {
		if x > maxv {
			maxv = x
		}
	}
	var sum T
	for i, x := range src {
		e := T(math.Exp(float64(x - maxv)))
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// CrossEntropyMean computes mean over positions of -log softmax(logits)[target].
// Positions with target < 0 are ignored (padding). This fused op is used
// by the DeepLog and base-transformer training objectives.
func (t *Tape) CrossEntropyMean(logits *Node, targets []int) *Node {
	checkSameTape(t, logits)
	checkShape(len(targets) == logits.Value.Rows, "cross-entropy targets %d vs rows %d",
		len(targets), logits.Value.Rows)
	probs := NewMatrix(logits.Value.Rows, logits.Value.Cols)
	var loss float64
	count := 0
	for r, tgt := range targets {
		SoftmaxInto(probs.Row(r), logits.Value.Row(r))
		if tgt < 0 {
			continue
		}
		checkShape(tgt < logits.Value.Cols, "cross-entropy target %d out of %d classes", tgt, logits.Value.Cols)
		loss -= math.Log(math.Max(probs.At(r, tgt), 1e-12))
		count++
	}
	if count > 0 {
		loss /= float64(count)
	}
	out := FromSlice(1, 1, []float64{loss})
	n := t.node(out, logits.requiresGrad, nil)
	n.back = func() {
		if !logits.requiresGrad || count == 0 {
			return
		}
		ensureGrad(logits)
		g := n.Grad.Data[0] / float64(count)
		for r, tgt := range targets {
			if tgt < 0 {
				continue
			}
			dst := logits.Grad.Row(r)
			p := probs.Row(r)
			for c := range dst {
				dst[c] += g * p[c]
			}
			dst[tgt] -= g
		}
	}
	return n
}
