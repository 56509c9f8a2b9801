package tensor

import "math"

// SoftmaxInto32 writes a numerically-stable softmax(src) into dst (which
// may alias src; len(dst) must be at least len(src)) without leaving
// float32 — the float32 scoring kernel's attention-row softmax, where
// SoftmaxInto's float64 libm exponential was the largest single cost of
// a forward pass. On amd64 it is a packed-SSE2 assembly kernel (baseline
// ISA, no feature detection); softmax32Generic is its portable twin and
// agrees with it bit for bit.
//
// Four lanes at a time: the row maximum, exp(x − max) by range reduction
// (expLanes32), a lane-wise sum folded (0+2)+(1+3), and a division by
// that sum. A ragged tail is processed as one more four-lane block
// padded with -Inf, whose terms are exactly zero. Any term more than 87
// below the maximum is exactly +0 — so a masked (-1e9) score gets zero
// weight, as it does in float64 by underflow.
func SoftmaxInto32(dst, src []float32) {
	if len(dst) < len(src) {
		panic("tensor: softmax32 dst shorter than src")
	}
	softmax32(dst, src)
}

// The float32 exponential's constants (Cephes expf): log2(e), ln 2 split
// into a short high part (n·ln2Hi32 is exact for every n in range) and
// a low correction, and the minimax polynomial of
// (exp(r) − 1 − r) / r² on |r| ≤ ln2/2.
const (
	expMin32 = -87 // exp below this is forced to +0; above it 2ⁿ stays normal
	log2e32  = 1.44269504088896341
	ln2Hi32  = 0.693359375
	ln2Lo32  = -2.12194440e-4
	expP0    = 1.9875691500e-4
	expP1    = 1.3981999507e-3
	expP2    = 8.3334519073e-3
	expP3    = 4.1665795894e-2
	expP4    = 1.6666665459e-1
	expP5    = 5.0000001201e-1
)

// expLanes32 computes e[i] = exp(x[i] − maxv) for four lanes and adds
// them into sum lane-wise. x[i] − maxv must not be positive. Every
// product is rounded to float32 before it is added (the explicit
// conversions forbid fusing into a multiply-add), so the result matches
// the SSE2 kernel's MULPS/ADDPS sequence on every target.
func expLanes32(e, x *[4]float32, maxv float32, sum *[4]float32) {
	for i, xv := range x {
		d := xv - maxv
		c := d
		if !(c > expMin32) { // MAXPS: the clamp wins unless d is strictly greater
			c = expMin32
		}
		// n = round(c·log2 e) for c ≤ 0, by truncation toward zero.
		nf := float32(int32(float32(c*log2e32) - 0.5))
		r := c - float32(nf*ln2Hi32)
		r -= float32(nf * ln2Lo32)
		p := float32(expP0*r) + expP1
		p = float32(p*r) + expP2
		p = float32(p*r) + expP3
		p = float32(p*r) + expP4
		p = float32(p*r) + expP5
		p = float32(p*float32(r*r)) + r
		p += 1
		// 2ⁿ through the exponent bits; n ≥ -126, so it is a normal number.
		v := float32(p * math.Float32frombits(uint32(int32(nf)+127)<<23))
		if d < expMin32 {
			v = 0
		}
		e[i] = v
		sum[i] += v
	}
}

// softmax32Generic is the portable twin of the amd64 kernel: the same
// operations in the same order, lane for lane.
func softmax32Generic(dst, src []float32) {
	n4 := len(src) &^ 3
	negInf := float32(math.Inf(-1))

	// Row maximum: four running lane maxima folded (0,2),(1,3), then the
	// tail. Each step keeps the incumbent only when it is strictly
	// greater, as MAXPS/MAXSS do.
	m := [4]float32{negInf, negInf, negInf, negInf}
	for i := 0; i < n4; i += 4 {
		for l, x := range src[i : i+4] {
			if !(m[l] > x) {
				m[l] = x
			}
		}
	}
	a, b := m[0], m[1]
	if !(a > m[2]) {
		a = m[2]
	}
	if !(b > m[3]) {
		b = m[3]
	}
	maxv := a
	if !(maxv > b) {
		maxv = b
	}
	for _, x := range src[n4:] {
		if !(maxv > x) {
			maxv = x
		}
	}

	var sum [4]float32
	for i := 0; i < n4; i += 4 {
		expLanes32((*[4]float32)(dst[i:i+4]), (*[4]float32)(src[i:i+4]), maxv, &sum)
	}
	if tail := src[n4:]; len(tail) > 0 {
		blk := [4]float32{negInf, negInf, negInf, negInf}
		copy(blk[:], tail)
		expLanes32(&blk, &blk, maxv, &sum)
		copy(dst[n4:len(src)], blk[:])
	}
	total := float32(sum[0]+sum[2]) + float32(sum[1]+sum[3])
	for i := range dst[:len(src)] {
		dst[i] /= total
	}
}
