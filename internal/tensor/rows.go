package tensor

import (
	"math"
	"math/rand"
)

// Row primitives the layers' forward and backward passes compose:
// Eq. 6's standardization, the softmax row and its backward pass, the
// next-key cross-entropy and inverted-dropout masks.

// StandardizeRow writes x̂ = (x-μ)/√(σ²+ε) of src into dst — the core of
// Eq. 6's layer norm, before gain and bias — and returns 1/√(σ²+ε),
// which StandardizeRowBackward needs.
func StandardizeRow(dst, src []float64, eps float64) float64 {
	nf := float64(len(src))
	var mu float64
	for _, x := range src {
		mu += x
	}
	mu /= nf
	var v float64
	for _, x := range src {
		d := x - mu
		v += d * d
	}
	v /= nf
	inv := 1 / math.Sqrt(v+eps)
	for c, x := range src {
		dst[c] = (x - mu) * inv
	}
	return inv
}

// StandardizeRowBackward writes into dst the gradient of the row src
// that StandardizeRow mapped to xhat with inverse deviation inv, given
// g, the gradient of xhat.
func StandardizeRowBackward(dst, g, xhat []float64, inv float64) {
	nf := float64(len(g))
	var sumG, sumGX float64
	for c, v := range g {
		sumG += v
		sumGX += v * xhat[c]
	}
	for c, v := range g {
		dst[c] = inv * (v - sumG/nf - xhat[c]*sumGX/nf)
	}
}

// SoftmaxRowBackward writes into dst (which may alias g) the gradient
// of a softmax row's input, y = softmax(x), given g, the gradient of y:
// y ⊙ (g - g·y).
func SoftmaxRowBackward(dst, g, y []float64) {
	var dot float64
	for c, v := range g {
		dot += v * y[c]
	}
	for c, v := range g {
		dst[c] = y[c] * (v - dot)
	}
}

// SoftmaxInto writes a numerically-stable softmax(src) into dst (which
// may alias src): the attention rows of the float64 scoring kernel and
// of the training step (the float32 kernel's is SoftmaxInto32). The
// exponential runs in float64 whatever T is, so a masked term's
// exp(-1e9 - max) underflows to exactly 0.
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

// CrossEntropyRow returns -log softmax(logits)[target], one position's
// next-key loss (the DeepLog objective), and writes its gradient with
// respect to logits, softmax(logits) - onehot(target), into dst (which
// may alias logits).
func CrossEntropyRow(dst, logits []float64, target int) float64 {
	SoftmaxInto(dst, logits)
	loss := -math.Log(math.Max(dst[target], 1e-12))
	dst[target]--
	return loss
}

// DropoutMask fills mult with inverted-dropout multipliers, one rng
// draw per element in order: 1/(1-rate) for a survivor (probability
// 1-rate), 0 for a dropped element.
func DropoutMask(mult []float64, rate float64, rng *rand.Rand) {
	scale := 1 / (1 - rate)
	for i := range mult {
		mult[i] = 0
		if rng.Float64() >= rate {
			mult[i] = scale
		}
	}
}
