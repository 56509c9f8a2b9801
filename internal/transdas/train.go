package transdas

import (
	"log"
	"math/rand"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// window is one training example extracted by the sliding window
// (§5.2): keys are the inputs, targets the forward-shifted desired
// outputs (-1 marks positions with no target).
type window struct {
	keys    []int
	targets []int
	// sessionKeys is the set of keys appearing in the source session;
	// negative samples are drawn from its complement (§5.2's negative
	// sampling rule). All windows of one session share the same set.
	sessionKeys map[int]bool
}

// extractWindows slices a session's key sequence into training windows:
// for the window ending at position t, the input is (x_{t-L+1}, …, x_t)
// and the desired output its forward shift (x_{t-L+2}, …, x_{t+1})
// (§5.2). The window end slides over every transition (step = stride),
// so each next-operation prediction is trained in the same
// pure-history configuration that online detection reads from the
// final output position. Early windows are shorter than L.
//
// The window count is known up front, so the slice and one flat target
// buffer are allocated exactly once; keys are sub-slices of the session
// and every window shares the single per-session key set.
func extractWindows(keys []int, L, stride int) []window {
	if len(keys) < 2 {
		return nil
	}
	set := make(map[int]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	n := ((len(keys) - 2) / stride) + 1 // window ends t = 0, stride, … < len-1
	out := make([]window, 0, n)
	flatLen := 0
	for t := 0; t < len(keys)-1; t += stride {
		start := t - L + 1
		if start < 0 {
			start = 0
		}
		flatLen += t + 1 - start
	}
	flat := make([]int, 0, flatLen)
	for t := 0; t < len(keys)-1; t += stride {
		start := t - L + 1
		if start < 0 {
			start = 0
		}
		in := keys[start : t+1]
		from := len(flat)
		flat = append(flat, keys[start+1:t+2]...)
		out = append(out, window{keys: in, targets: flat[from:len(flat):len(flat)], sessionKeys: set})
	}
	return out
}

// sampleNegativesInto draws, for each position, a key that never appears
// in the session (falling back to any non-target key when the session
// covers nearly the whole vocabulary), writing into dst (grown as
// needed) and returning it. Draws come from rng so each data-parallel
// worker samples from its own deterministic stream.
func (m *Model) sampleNegativesInto(dst []int, w window, rng *rand.Rand) []int {
	if cap(dst) < len(w.targets) {
		dst = make([]int, len(w.targets))
	}
	neg := dst[:len(w.targets)]
	vocab := m.cfg.Vocab
	for i, tgt := range w.targets {
		if tgt < 0 {
			neg[i] = -1
			continue
		}
		neg[i] = -1
		for attempt := 0; attempt < 20; attempt++ {
			k := 1 + rng.Intn(vocab-1)
			if !w.sessionKeys[k] {
				neg[i] = k
				break
			}
		}
		if neg[i] < 0 { // dense session: any key except the target
			for attempt := 0; attempt < 20; attempt++ {
				k := 1 + rng.Intn(vocab-1)
				if k != tgt {
					neg[i] = k
					break
				}
			}
		}
	}
	return neg
}

// windowLoss builds Eq. 11 for one window on the tape:
//
//	Σ_i max(z_i^- - z_i^+ + g, 0) - log(z_i^+)
//
// averaged over valid positions. z_i^± = sigmoid(O_i · M(x_±)) (Eq. 10).
// The ‖θ‖₂ term is applied as decoupled weight decay in the SGD step.
//
// rng drives dropout and negative sampling (the caller's worker
// stream); negBuf is an optional reusable negative-sample buffer,
// returned (possibly grown) for the next call.
func (m *Model) windowLoss(tp *tensor.Tape, w window, train bool, rng *rand.Rand, negBuf []int) (*tensor.Node, int, []int) {
	out := m.forwardRNG(tp, w.keys, train, rng)

	// A vocabulary of k0 plus one key cannot yield a negative sample:
	// the 20-attempt loops would emit -1 for every position and the
	// triplet term would train against the constant zero embedding.
	// Fall back to the one-class CE objective for such windows.
	useTriplet := m.cfg.Objective == ObjectiveTripletCE
	if useTriplet && m.cfg.Vocab <= 2 {
		useTriplet = false
		m.warnDegenerateVocab()
	} else {
		// One round of negatives is drawn here regardless of objective
		// (the CE-only ablation consumes but ignores it), preserving the
		// exact RNG order of the pre-parallel trainer.
		negBuf = m.sampleNegativesInto(negBuf, w, rng)
	}

	valid := 0
	maskData := make([]float64, len(w.targets))
	for i, tgt := range w.targets {
		if tgt > 0 { // skip no-target and PadKey targets
			maskData[i] = 1
			valid++
		}
	}
	if valid == 0 {
		return nil, 0, negBuf
	}
	mask := tp.Const(tensor.FromSlice(len(w.targets), 1, maskData))

	table := tp.Param(m.emb.Table)
	posEmb := tp.GatherRows(table, clampIdx(w.targets, m.cfg.Vocab))
	zpos := tp.Sigmoid(tp.RowDot(out, posEmb))

	ce := tp.Scale(tp.Log(zpos), -1)
	perPos := ce
	if useTriplet {
		negRounds := m.cfg.NegSamples
		if negRounds <= 0 {
			negRounds = 1
		}
		for r := 0; r < negRounds; r++ {
			if r > 0 {
				negBuf = m.sampleNegativesInto(negBuf, w, rng)
			}
			negEmb := tp.GatherRows(table, clampIdx(negBuf, m.cfg.Vocab))
			zneg := tp.Sigmoid(tp.RowDot(out, negEmb))
			hinge := tp.ReLU(tp.AddScalar(tp.Sub(zneg, zpos), m.cfg.Margin))
			perPos = tp.Add(perPos, tp.Scale(hinge, 1/float64(negRounds)))
		}
	}
	loss := tp.Scale(tp.Sum(tp.Mul(perPos, mask)), 1/float64(valid))
	return loss, valid, negBuf
}

// warnDegenerateVocab records (once per model, with a log line) that the
// triplet objective was disabled because the vocabulary has no key to
// sample negatives from.
func (m *Model) warnDegenerateVocab() {
	m.negWarn.Do(func() {
		m.degenerateVocab.Store(true)
		log.Printf("transdas: vocab %d has no negative-sample candidates; training with the CE-only objective", m.cfg.Vocab)
	})
}

// clampIdx maps invalid or padding keys to -1 so GatherRows yields a
// zero (gradient-free) row for them. It must copy: GatherRows retains
// the index slice for the backward pass, while the caller's buffer is
// reused across sampling rounds.
func clampIdx(keys []int, vocab int) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		if k <= 0 || k >= vocab {
			out[i] = -1
		} else {
			out[i] = k
		}
	}
	return out
}

// TrainResult summarizes one training run.
type TrainResult struct {
	// EpochLoss is the mean per-position loss of each epoch.
	EpochLoss []float64
	// Windows is the number of training windows per epoch.
	Windows int
}

// Train fits the model on normal sessions (each a statement-key
// sequence) for cfg.Epochs epochs of SGD, shuffling windows each epoch.
// With cfg.BatchSize/cfg.TrainWorkers raised it trains data-parallel:
// each mini-batch's windows are sharded across workers and their
// gradients reduced into one SGD step (see train_parallel.go).
// progress, if non-nil, is called after every epoch.
func (m *Model) Train(sessions [][]int, progress func(epoch int, loss float64)) TrainResult {
	return m.train(sessions, m.cfg.Epochs, m.cfg.LR, progress)
}

// FineTune continues training on newly verified normal sessions at half
// the base learning rate — the paper's concept-drift strategy (§5.2):
// the model keeps its historical knowledge and absorbs the new normal
// patterns without retraining from scratch. progress, if non-nil, is
// called after every epoch (training instrumentation).
func (m *Model) FineTune(sessions [][]int, epochs int, progress func(epoch int, loss float64)) TrainResult {
	return m.train(sessions, epochs, m.cfg.LR*0.5, progress)
}

func (m *Model) train(sessions [][]int, epochs int, lr float64, progress func(int, float64)) TrainResult {
	windows := m.collectWindows(sessions)
	res := m.trainWindows(windows, epochs, lr, progress)
	// The weights changed (or conservatively may have): advance the
	// generation so the float32 snapshot rebuilds and every cached
	// similarity row goes stale. The serving layer holds the model
	// write-lock across this call, so no concurrent scorer can observe
	// half-updated weights under the old generation.
	m.bumpWeightGen()
	return res
}

// collectWindows extracts and concatenates the training windows of all
// sessions, sized exactly up front.
func (m *Model) collectWindows(sessions [][]int) []window {
	var windows []window
	for _, s := range sessions {
		ws := extractWindows(s, m.cfg.Window, m.cfg.stride())
		if windows == nil && len(ws) > 0 {
			windows = make([]window, 0, len(ws)*len(sessions))
		}
		windows = append(windows, ws...)
	}
	return windows
}

// applyStep finishes one optimizer step from the gradients accumulated
// in m.params: decoupled weight decay, global-norm clipping, SGD update.
func (m *Model) applyStep(opt *nn.SGD) {
	if m.cfg.WeightDecay > 0 {
		for _, p := range m.params {
			for i, v := range p.Value.Data {
				p.Grad.Data[i] += m.cfg.WeightDecay * v
			}
		}
	}
	if m.cfg.ClipNorm > 0 {
		nn.ClipGradNorm(m.params, m.cfg.ClipNorm)
	}
	opt.Step(m.params)
}
