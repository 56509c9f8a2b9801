// Package detect is the serving model's guard: one trained detector
// behind a read/write lock, so scoring (RankBatch, DetectSession) runs
// concurrently while a fine-tune round (FineTune) or a hot replacement
// (SwapModel) changes the weights. The online loop of Figure 5 — the
// verified pool, close-out verdicts, fine-tune scheduling — is the
// caller's (internal/serve).
package detect

import (
	"io"
	"sync"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/transdas"
)

// Online guards the serving detector. It is safe for concurrent use:
// RankBatch, DetectSession and Save read under the read-lock, FineTune
// and SwapModel write under the write-lock.
type Online struct {
	// modelMu serializes model mutation (FineTune, SwapModel) against
	// model reads. Inference is read-only on the weights, so concurrent
	// readers are safe with each other.
	modelMu sync.RWMutex
	ucad    *core.UCAD
}

// NewOnline wraps a trained detector.
func NewOnline(u *core.UCAD) *Online { return &Online{ucad: u} }

// SwapModel hot-replaces the wrapped detector under the model
// write-lock: in-flight scoring batches finish against the old model
// first, then every later read sees the new one.
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
	o.modelMu.Unlock()
}

// DetectSession runs the full-session top-p test (§5.3) under the
// read-lock. The session is tokenized with the vocabulary of the model
// that scores it, so a swap between a session's close and its verdict
// cannot mix two vocabularies.
func (o *Online) DetectSession(s *session.Session) []int {
	o.modelMu.RLock()
	defer o.modelMu.RUnlock()
	return o.ucad.DetectSession(s)
}

// FineTune runs one round of the paper's periodic training (§3, §5.2)
// on verified-normal sessions under the write-lock: concurrent scoring
// blocks for the round and resumes on the updated weights. progress, if
// non-nil, fires after every epoch with the lock held — keep it cheap.
func (o *Online) FineTune(sessions []*session.Session, epochs int, progress func(epoch int, loss float64)) transdas.TrainResult {
	o.modelMu.Lock()
	defer o.modelMu.Unlock()
	return o.ucad.FineTune(sessions, epochs, progress)
}

// RankBatch scores a micro-batch of operations in one stacked forward
// pass: dst[b] receives the 1-based similarity rank of keys[b] given
// contexts[b]. The whole batch is read-locked as a unit, so every rank
// in it reflects the same model version. dst is grown as needed and
// returned; len(keys) must equal len(contexts).
func (o *Online) RankBatch(dst []int, contexts [][]int, keys []int) []int {
	o.modelMu.RLock()
	defer o.modelMu.RUnlock()
	return o.ucad.Model.RankBatch(dst, contexts, keys)
}

// Save persists the wrapped detector under the read-lock, so a
// checkpoint written while serving (and between fine-tune rounds) is a
// consistent parameter snapshot, never a half-updated one.
func (o *Online) Save(w io.Writer) error {
	o.modelMu.RLock()
	defer o.modelMu.RUnlock()
	return o.ucad.Save(w)
}
