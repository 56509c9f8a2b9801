package transdas

// The single-item API below is a thin wrapper family over the
// batch-first Scorer: every call borrows a pooled Scorer and runs a
// batch of one. Callers scoring more than one context at a time should
// hold a Scorer and use ScoreBatchInto / RankBatchInto directly — one
// stacked forward pass amortizes far better than a loop over these
// wrappers.

// detectChunk bounds how many contexts a session scan stacks into one
// forward pass: large enough to amortize the pass, small enough to keep
// the padded (chunk·Window) x Hidden scratch modest.
const detectChunk = 32

// RankOf returns the 1-based similarity rank of key among all keys given
// the preceding context (rank 1 = most similar to the predicted intent).
// A PadKey or out-of-vocabulary key ranks last (Vocab). With an empty
// context every in-vocabulary key ranks 1 (no evidence of anomaly).
func (m *Model) RankOf(preceding []int, key int) int {
	s := m.scorer()
	defer m.scorers.Put(s)
	s.ranks = s.RankBatchInto(s.ranks, [][]int{preceding}, []int{key})
	return s.ranks[0]
}

// DetectSession applies the top-p strategy (§5.3) to every operation of
// a session that has at least MinContext preceding operations. It
// returns the indices of operations whose key does not rank within the
// top p (anomalies). Unknown statements (PadKey) are always anomalous.
// The scan is internally batched: growing context prefixes are scored
// in chunks of one stacked forward pass each.
func (m *Model) DetectSession(keys []int) []int {
	var anomalies []int
	m.scanSession(keys, func(t int) bool {
		anomalies = append(anomalies, t)
		return true
	})
	return anomalies
}

// IsAnomalous reports whether any operation in the session fails the
// top-p test — the session-level flag used for the paper's metrics. It
// stops at the first failing chunk instead of scanning the whole
// session.
func (m *Model) IsAnomalous(keys []int) bool {
	anomalous := false
	m.scanSession(keys, func(int) bool {
		anomalous = true
		return false
	})
	return anomalous
}

// scanSession runs the top-p test over every scorable position of a
// session in detectChunk-sized batches, invoking onAnomaly with each
// failing position. Returning false from onAnomaly stops the scan.
func (m *Model) scanSession(keys []int, onAnomaly func(t int) bool) {
	if len(keys) <= m.cfg.MinContext {
		return
	}
	s := m.scorer()
	defer m.scorers.Put(s)
	ctxs := make([][]int, 0, detectChunk)
	targets := make([]int, 0, detectChunk)
	for t0 := m.cfg.MinContext; t0 < len(keys); t0 += detectChunk {
		hi := min(t0+detectChunk, len(keys))
		ctxs, targets = ctxs[:0], targets[:0]
		for t := t0; t < hi; t++ {
			ctxs = append(ctxs, keys[:t])
			targets = append(targets, keys[t])
		}
		s.ranks = s.RankBatchInto(s.ranks, ctxs, targets)
		for i, r := range s.ranks {
			if r > m.cfg.TopP && !onAnomaly(t0+i) {
				return
			}
		}
	}
}
