// Package detect implements the online detection stage (§5.3 and
// Figure 5): active sessions stream through the trained detector,
// flagged sessions go to the caller for expert diagnosis, and
// verified-normal sessions (including false alarms) feed the next
// fine-tuning round — the concept-drift loop of §5.2.
package detect

import (
	"io"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/transdas"
)

// Alert is one flagged session awaiting expert review.
type Alert struct {
	Session *session.Session
	// Positions are the indices of the operations that violated the
	// top-p test (0 alone means a policy violation).
	Positions []int
}

// Online is the streaming detection loop. It is safe for concurrent
// use: Process and RankBatch score under a read-lock while Retrain
// fine-tunes under the write-lock, so scoring and retraining may be
// issued from independent goroutines.
type Online struct {
	mu sync.Mutex
	// modelMu serializes model mutation (Retrain's fine-tune) against
	// model reads (Process, RankBatch). Inference is read-only on the
	// weights, so concurrent readers are safe with each other.
	modelMu sync.RWMutex

	ucad *core.UCAD
	// scorers pools batch-first scorers for RankBatch; a pooled Scorer
	// stays valid across Retrain because fine-tuning updates the model
	// parameters in place under modelMu. SwapModel replaces the pool
	// wholesale (the old model's scorers must never rank for the new
	// one), so Get/Put happen under the model read-lock.
	scorers *sync.Pool
	// verified accumulates sessions confirmed normal since the last
	// retraining round.
	verified []*session.Session

	processed int
	flagged   int

	hooks TrainHooks
}

// RetrainStats summarizes one completed fine-tune round for
// instrumentation: how much was absorbed, how long it took, and where
// the loss landed.
type RetrainStats struct {
	// Sessions is the number of verified sessions absorbed.
	Sessions int
	// Windows is the number of training windows per epoch.
	Windows int
	// Epochs is the number of epochs actually run.
	Epochs int
	// FinalLoss is the last epoch's mean per-position loss (0 when no
	// window trained).
	FinalLoss float64
	// Duration is the wall-clock fine-tune time, model lock included.
	Duration time.Duration
}

// WindowsPerSecond is the training throughput of the round
// (windows × epochs / duration); 0 when the round was instantaneous.
func (s RetrainStats) WindowsPerSecond() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Windows*s.Epochs) / s.Duration.Seconds()
}

// TrainHooks receives training progress from Retrain. Epoch fires after
// every fine-tune epoch with the epoch's mean loss and wall-clock
// duration (from the retraining goroutine, while the model lock is
// held — keep it cheap, e.g. a gauge store and histogram observe); Done
// fires once per completed round. Either may be nil.
type TrainHooks struct {
	Epoch func(epoch int, loss float64, took time.Duration)
	Done  func(RetrainStats)
}

// SetTrainHooks installs training instrumentation; call before the
// first Retrain.
func (o *Online) SetTrainHooks(h TrainHooks) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hooks = h
}

// NewOnline wraps a trained detector.
func NewOnline(u *core.UCAD) *Online {
	return &Online{ucad: u, scorers: scorerPool(u)}
}

func scorerPool(u *core.UCAD) *sync.Pool {
	return &sync.Pool{New: func() any { return u.Model.NewScorer() }}
}

// SwapModel hot-replaces the wrapped detector under the model
// write-lock: in-flight scoring batches finish against the old model
// first, then every later read — Process, RankBatch, Save —
// sees the new one. The scorer pool is replaced too, so no pooled
// scorer built on the old model can rank for the new one. The verified
// pool carries over — sessions already judged keep their verdicts and
// still feed the next fine-tune round.
//
// The old model's score cache (if any) is bumped and carried onto the
// replacement: the new weights are a new generation, so every cached
// similarity row goes stale atomically with the swap, while the
// lifetime hit/miss counters stay monotonic across hot swaps (the
// Prometheus contract for the ucad_score_cache_* families). A cache
// already attached to the incoming model is kept (and bumped) when the
// old model had none.
func (o *Online) SwapModel(u *core.UCAD) {
	o.modelMu.Lock()
	if oc := o.ucad.Model.ScoreCache(); oc != nil {
		oc.Bump()
		// Detach from the old model first: a straggler still holding the
		// old detector pointer may keep scoring it, and must not insert
		// old-weight rows into the cache the new model now owns.
		o.ucad.Model.SetScoreCache(nil)
		u.Model.SetScoreCache(oc)
	} else if nc := u.Model.ScoreCache(); nc != nil {
		nc.Bump()
	}
	o.ucad = u
	o.scorers = scorerPool(u)
	o.modelMu.Unlock()
}

// Process evaluates one active session. Normal sessions join the
// verified pool immediately; anomalous ones return an Alert, which the
// caller keeps until the expert resolves it (Online holds no alert
// ledger of its own).
func (o *Online) Process(s *session.Session) *Alert {
	o.modelMu.RLock()
	positions := o.ucad.DetectSession(s)
	o.modelMu.RUnlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.processed++
	if len(positions) == 0 {
		o.verified = append(o.verified, s)
		return nil
	}
	o.flagged++
	return &Alert{Session: s, Positions: positions}
}

// ResolveFalseAlarm records the expert verdict that an alert was
// normal; the session joins the verified pool for the next fine-tune.
func (o *Online) ResolveFalseAlarm(a *Alert) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.verified = append(o.verified, a.Session)
}

// Stats reports processed and flagged session counts.
func (o *Online) Stats() (processed, flagged int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.processed, o.flagged
}

// VerifiedCount reports the size of the pending fine-tune pool.
func (o *Online) VerifiedCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.verified)
}

// Retrain fine-tunes the model on the verified pool and clears it —
// one round of the paper's periodic training (§3). It returns the
// number of sessions absorbed. Concurrent Process/RankBatch calls block
// for the duration of the fine-tune and resume on the updated model.
// The fine-tune runs with the model's configured data-parallel
// training (TrainWorkers/BatchSize), shortening the write-locked
// window on multi-core hosts.
func (o *Online) Retrain(epochs int) int {
	o.mu.Lock()
	pool := o.verified
	o.verified = nil
	hooks := o.hooks
	o.mu.Unlock()
	if len(pool) == 0 {
		return 0
	}
	start := time.Now()
	var progress func(int, float64)
	if hooks.Epoch != nil {
		lastEpoch := start
		progress = func(epoch int, loss float64) {
			now := time.Now()
			hooks.Epoch(epoch, loss, now.Sub(lastEpoch))
			lastEpoch = now
		}
	}
	o.modelMu.Lock()
	res := o.ucad.FineTune(pool, epochs, progress)
	o.modelMu.Unlock()
	if hooks.Done != nil {
		st := RetrainStats{
			Sessions: len(pool),
			Windows:  res.Windows,
			Epochs:   len(res.EpochLoss),
			Duration: time.Since(start),
		}
		if n := len(res.EpochLoss); n > 0 {
			st.FinalLoss = res.EpochLoss[n-1]
		}
		hooks.Done(st)
	}
	return len(pool)
}

// RankBatch scores a micro-batch of operations in one stacked forward
// pass: dst[b] receives the 1-based similarity rank of keys[b] given
// contexts[b]. The whole batch is read-locked against Retrain as a
// unit, so every rank in it reflects the same model version. dst is
// grown as needed and returned; len(keys) must equal len(contexts).
func (o *Online) RankBatch(dst []int, contexts [][]int, keys []int) []int {
	o.modelMu.RLock()
	// Get/Put stay inside the lock: a SwapModel between them would hand
	// an old-model scorer back to the new model's pool.
	s := o.scorers.Get().(*transdas.Scorer)
	dst = s.RankBatchInto(dst, contexts, keys)
	o.scorers.Put(s)
	o.modelMu.RUnlock()
	return dst
}

// Detector returns the wrapped trained detector (vocabulary access for
// live tokenization; do not mutate the model directly). Read-locked so
// a concurrent SwapModel hands back either the old or new detector,
// never a torn pointer.
func (o *Online) Detector() *core.UCAD {
	o.modelMu.RLock()
	defer o.modelMu.RUnlock()
	return o.ucad
}

// Save persists the wrapped detector under the model read-lock, so a
// checkpoint written while serving (and between fine-tune rounds) is a
// consistent parameter snapshot, never a half-updated one.
func (o *Online) Save(w io.Writer) error {
	o.modelMu.RLock()
	defer o.modelMu.RUnlock()
	return o.ucad.Save(w)
}
