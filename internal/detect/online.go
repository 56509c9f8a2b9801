// Package detect ranks operations against one trained detector. The
// serving layer (internal/serve) ranks through the model it serves
// directly; this package keeps only the ranking surface the benchmark
// harness (bench/ucadbench) measures.
package detect

import "github.com/ucad/ucad/internal/core"

// Online ranks against one trained detector. A detector is never
// changed once it can be scored (a fine-tune round returns a copy), so
// Online needs no lock and is safe for concurrent use.
type Online struct {
	ucad *core.UCAD
}

// NewOnline wraps a trained detector.
func NewOnline(u *core.UCAD) *Online { return &Online{ucad: u} }

// RankBatch scores a micro-batch of operations in one stacked forward
// pass: dst[b] receives the 1-based similarity rank of keys[b] given
// contexts[b]. dst is grown as needed and returned; len(keys) must
// equal len(contexts).
func (o *Online) RankBatch(dst []int, contexts [][]int, keys []int) []int {
	return o.ucad.Model.RankBatch(dst, contexts, keys)
}
