package baselines

import (
	"math"
	"math/rand"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// USAD is the adversarially trained autoencoder of Audibert et al. [11]
// adapted to statement-key streams: sliding windows of the session are
// profiled as count vectors, a shared encoder feeds two decoders trained
// in the paper's two-phase adversarial scheme, and the anomaly score is
// α‖x−AE₁(x)‖² + β‖x−AE₂(AE₁(x))‖². A session is anomalous when any of
// its windows scores above the calibrated training quantile.
type USAD struct {
	// Window is the number of operations per scored window (default 10).
	Window int
	// Latent and HiddenDim size the autoencoders.
	Latent, HiddenDim int
	// Epochs and LR control Adam training.
	Epochs int
	LR     float64
	// Alpha and Beta weight the two reconstruction terms (default 0.5
	// each).
	Alpha, Beta float64
	// ThresholdQ is the training-score quantile used as the anomaly
	// threshold (default 0.98).
	ThresholdQ float64
	// Seed drives initialization and shuffling.
	Seed int64

	vocab     int
	enc       *nn.FeedForward // the shared encoder
	dec1      *nn.FeedForward // AE₁'s decoder
	dec2      *nn.FeedForward // AE₂'s decoder
	params    []*tensor.Param
	threshold float64
	scale     float64 // input normalization
	rng       *rand.Rand
}

// NewUSAD returns a detector with the original paper's defaults.
func NewUSAD(seed int64) *USAD {
	return &USAD{
		Window: 10, Latent: 8, HiddenDim: 32,
		Epochs: 12, LR: 0.01, Alpha: 0.5, Beta: 0.5, ThresholdQ: 0.98, Seed: seed,
	}
}

// Name implements metrics.Detector.
func (u *USAD) Name() string { return "USAD" }

// newHalf is an autoencoder half, a Linear-ReLU-Linear block.
func newHalf(name string, in, hidden, out int, rng *rand.Rand) *nn.FeedForward {
	return &nn.FeedForward{
		L1: nn.NewLinear(name+".1", in, hidden, rng),
		L2: nn.NewLinear(name+".2", hidden, out, rng),
	}
}

// usadPass is one autoencoder pass, sigmoid(dec(enc(x))): its forward
// state, latent code and reconstruction, and their gradients. The
// sigmoid keeps reconstructions in the input's [0,1] range, which
// bounds the adversarial term of phase-2 training (inputs are count
// vectors scaled by 1/Window).
type usadPass struct {
	enc, dec nn.FFNState
	z, out   *tensor.Matrix
	gz, gout *tensor.Matrix
}

// forward runs the pass through decoder dec and returns the
// reconstruction.
func (u *USAD) forward(p *usadPass, dec *nn.FeedForward, x *tensor.Matrix) *tensor.Matrix {
	p.z, p.gz = tensor.Resize(p.z, 1, u.Latent), tensor.Resize(p.gz, 1, u.Latent)
	p.out, p.gout = tensor.Resize(p.out, 1, x.Cols), tensor.Resize(p.gout, 1, x.Cols)
	u.enc.Forward(&p.enc, p.z, x)
	dec.Forward(&p.dec, p.out, p.z)
	for i, v := range p.out.Data {
		p.out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return p.out
}

// backward takes p.gout (overwritten), the reconstruction's gradient,
// back through the pass: the encoder's gradients go to gr, the
// decoder's to decGr (none for a nil decGr) and, unless gx is nil, the
// input's gradient into gx.
func (u *USAD) backward(p *usadPass, dec *nn.FeedForward, gx *tensor.Matrix, gr, decGr *nn.Grads) {
	for i, y := range p.out.Data {
		p.gout.Data[i] *= y * (1 - y)
	}
	p.gz.Zero()
	dec.Backward(&p.dec, p.gz, p.gout, decGr)
	u.enc.Backward(&p.enc, gx, p.gz, gr)
}

// mse is ‖x−y‖²/n, the mean squared reconstruction error.
func mse(x, y *tensor.Matrix) float64 {
	var s float64
	for i, v := range x.Data {
		d := v - y.Data[i]
		s += float64(d * d)
	}
	return 1 / float64(len(x.Data)) * s
}

// mseBackward writes into g the gradient of w·mse(x, y) with respect to
// the reconstruction y.
func mseBackward(g, x, y *tensor.Matrix, w float64) {
	k := w * (1 / float64(len(x.Data)))
	for i, v := range x.Data {
		g.Data[i] = -(k * (2 * (v - y.Data[i])))
	}
}

// windowsOf slices a key sequence into count-vector windows, each a
// 1 x (vocab+1) row.
func (u *USAD) windowsOf(keys []int) []*tensor.Matrix {
	var out []*tensor.Matrix
	step := u.Window
	for s := 0; s < len(keys); s += step {
		e := min(s+u.Window, len(keys))
		v := CountVector(keys[s:e], u.vocab)
		for i := range v {
			v[i] *= u.scale
		}
		out = append(out, tensor.FromSlice(1, len(v), v))
		if e == len(keys) {
			break
		}
	}
	return out
}

// Fit implements metrics.Detector.
func (u *USAD) Fit(train [][]int) {
	u.vocab = MaxKey(train)
	u.rng = rand.New(rand.NewSource(u.Seed))
	u.scale = 1 / float64(u.Window)
	dim := u.vocab + 1
	u.enc = newHalf("usad.enc", dim, u.HiddenDim, u.Latent, u.rng)
	u.dec1 = newHalf("usad.dec1", u.Latent, u.HiddenDim, dim, u.rng)
	u.dec2 = newHalf("usad.dec2", u.Latent, u.HiddenDim, dim, u.rng)
	u.params = nn.CollectParams(u.enc, u.dec1, u.dec2)

	var xs []*tensor.Matrix
	for _, s := range train {
		xs = append(xs, u.windowsOf(s)...)
	}
	if len(xs) == 0 {
		u.enc = nil // stay untrained: Flag reports nothing
		return
	}
	optAE1 := nn.NewAdam(u.LR)
	optAE2 := nn.NewAdam(u.LR)
	p1 := nn.CollectParams(u.enc, u.dec1)
	p2 := nn.CollectParams(u.enc, u.dec2)
	gr := nn.ParamGrads(u.params)
	// The passes of one step: A = AE₁(x), B = AE₂(AE₁(x)) and, in phase
	// 2, C = AE₂(x).
	a, b, c := new(usadPass), new(usadPass), new(usadPass)
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	for epoch := 1; epoch <= u.Epochs; epoch++ {
		w1 := 1 / float64(epoch)
		w2 := 1 - w1
		u.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, xi := range order {
			x := xs[xi]
			// Phase 1: train AE1 to reconstruct x and to fool AE2,
			// minimizing w1·mse(x, AE₁) + w2·mse(x, AE₂(AE₁)). AE₁ gets
			// its reconstruction term's gradient, then the second
			// encoder pass's; dec2 is not updated, so its gradient is
			// not taken.
			ae1 := u.forward(a, u.dec1, x)
			ae21 := u.forward(b, u.dec2, ae1)
			mseBackward(a.gout, x, ae1, w1)
			mseBackward(b.gout, x, ae21, w2)
			u.backward(b, u.dec2, a.gout, gr, nil)
			u.backward(a, u.dec1, nil, gr, gr)
			nn.ClipGradNorm(p1, 1)
			optAE1.Step(p1)

			// Phase 2: train AE2 to reconstruct x but distinguish AE1's
			// reconstructions (adversarial minus term), minimizing
			// w1·mse(x, AE₂) − w2·mse(x, AE₂(AE₁)); dec1 is not updated.
			ae1 = u.forward(a, u.dec1, x)
			ae21 = u.forward(b, u.dec2, ae1)
			ae2 := u.forward(c, u.dec2, x)
			mseBackward(b.gout, x, ae21, -w2)
			mseBackward(c.gout, x, ae2, w1)
			a.gout.Zero()
			u.backward(c, u.dec2, nil, gr, gr)
			u.backward(b, u.dec2, a.gout, gr, gr)
			u.backward(a, u.dec1, nil, gr, nil)
			// The adversarial minus-term has an unbounded incentive;
			// clipping keeps the two-player training stable (the original
			// relies on batch averaging for the same effect).
			nn.ClipGradNorm(p2, 1)
			optAE2.Step(p2)
		}
	}
	scores := make([]float64, len(xs))
	for i, x := range xs {
		scores[i] = u.windowScore(a, b, x)
	}
	u.threshold = quantile(scores, u.ThresholdQ)
}

// windowScore is α‖x−AE₁‖² + β‖x−AE₂(AE₁)‖² (mean squared), run
// through passes a and b.
func (u *USAD) windowScore(a, b *usadPass, x *tensor.Matrix) float64 {
	ae1 := u.forward(a, u.dec1, x)
	ae21 := u.forward(b, u.dec2, ae1)
	return u.Alpha*mse(x, ae1) + u.Beta*mse(x, ae21)
}

// Flag implements metrics.Detector.
func (u *USAD) Flag(keys []int) bool {
	if u.enc == nil {
		return false
	}
	var a, b usadPass // per call: metrics.Evaluate runs Flag concurrently
	for _, w := range u.windowsOf(keys) {
		if u.windowScore(&a, &b, w) > u.threshold+1e-15 {
			return true
		}
	}
	return false
}
