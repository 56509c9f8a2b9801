package transdas

import (
	"log"
	"math/rand"

	"github.com/ucad/ucad/internal/nn"
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

// warnDegenerateVocab records (once per model, with a log line) that the
// triplet objective was disabled because the vocabulary has no key to
// sample negatives from.
func (m *Model) warnDegenerateVocab() {
	m.negWarn.Do(func() {
		m.degenerateVocab.Store(true)
		log.Printf("transdas: vocab %d has no negative-sample candidates; training with the CE-only objective", m.cfg.Vocab)
	})
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
// patterns without retraining from scratch. The round trains a copy and
// returns it; the receiver is never modified, so it keeps scoring while
// the round runs. The copy has the receiver's configuration, parameter
// values and scoring precision, no score cache, and takes over the
// receiver's random stream, so the copy continues the receiver's
// training trajectory; rounds on one receiver must therefore not run
// concurrently. progress, if non-nil, is called after every epoch
// (training instrumentation).
func (m *Model) FineTune(sessions [][]int, epochs int, progress func(epoch int, loss float64)) (*Model, TrainResult) {
	c := New(m.cfg)
	for i, p := range m.params {
		copy(c.params[i].Value.Data, p.Value.Data)
	}
	c.prec32.Store(m.prec32.Load())
	c.rng = m.rng
	return c, c.train(sessions, epochs, m.cfg.LR*0.5, progress)
}

// train runs epochs of SGD in place. Only Train (on a model nothing
// scores yet) and FineTune (on its fresh copy) call it; it drops the
// weights the kernels built, should a Scorer have run first, and bumps
// an attached score cache.
func (m *Model) train(sessions [][]int, epochs int, lr float64, progress func(int, float64)) TrainResult {
	windows := m.collectWindows(sessions)
	res := m.trainWindows(windows, epochs, lr, progress)
	m.w64.Store(nil)
	m.snap32.Store(nil)
	if c := m.scoreCache.Load(); c != nil {
		c.Bump()
	}
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
