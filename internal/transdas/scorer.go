package transdas

import (
	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// Scorer is the batch-first scoring surface of Trans-DAS: it stacks a
// micro-batch of variable-length contexts row after row, runs one
// masked forward pass over the stack (the fused kernel of kernel.go, at
// the model's scoring precision), and reads out one similarity row per
// context (Eq. 10). A warm Scorer performs zero heap allocations per
// batch beyond result rows the caller did not provide.
//
// A Scorer is not safe for concurrent use; create one per goroutine
// (they share the model's parameters, which the Scorer reads on every
// call, so a Scorer remains valid across in-place fine-tuning as long
// as scoring and training are externally serialized, e.g. by
// detect.Online's lock).
type Scorer struct {
	m *Model

	// The kind mask at cfg.Window, built on first use: a shorter
	// sequence's mask is its top-left corner, and both precisions share
	// it (it is only consulted as zero/nonzero).
	mask *tensor.Matrix

	// Per-pass geometry: kernel slot -> batch index, each slot's real
	// (truncated) context and its length, and the slot's first row in the
	// kernel's stacked matrices.
	slots []int
	ctxs  [][]int
	lens  []int
	offs  []int

	// The kernel's two instantiations, each with its own scratch (the
	// one the model never selects stays empty); a precision flip between
	// calls just switches which one runs.
	k64 kernel[float64]
	k32 kernel[float32]

	// rank scratch. sims rows are carved from simsSlab — one arena the
	// rank paths reuse call over call, so a warm RankBatchInto allocates
	// nothing for its similarity rows.
	sims     [][]float64
	simsSlab []float64
	ranks    []int
}

// NewScorer returns a Scorer over the model's current parameters.
func (m *Model) NewScorer() *Scorer { return &Scorer{m: m} }

// scorer fetches a pooled Scorer for the single-item wrappers and the
// session scan.
func (m *Model) scorer() *Scorer { return m.scorers.Get().(*Scorer) }

// arenaSims sizes s.sims to n rows of cfg.Vocab floats carved from the
// Scorer's flat arena slab, reusing it call over call. Rows handed out
// this way are owned by the Scorer — safe for the rank paths, whose
// rows are consumed before the next call.
func (s *Scorer) arenaSims(n int) [][]float64 {
	vocab := s.m.cfg.Vocab
	need := n * vocab
	if cap(s.simsSlab) < need {
		s.simsSlab = make([]float64, need)
	}
	slab := s.simsSlab[:need]
	if cap(s.sims) >= n {
		s.sims = s.sims[:n]
	} else {
		s.sims = make([][]float64, n)
	}
	for i := range s.sims {
		s.sims[i] = slab[i*vocab : (i+1)*vocab : (i+1)*vocab]
	}
	return s.sims
}

// ScoreBatchInto scores every context in one batched forward pass and
// returns one cfg.Vocab-length similarity row per context, in order:
// row b holds sim[k] = sigmoid(O_last · M(k)) for context b (Eq. 10),
// with sim[0] (the k0 slot) always 0. Contexts longer than cfg.Window
// are truncated to their most recent Window keys; an empty context
// yields an all-zero row (no contextual intent to compare against).
//
// It writes into dst: it reuses dst's backing array and any row with
// capacity >= cfg.Vocab, allocating only what is missing, and returns
// dst resized to len(contexts).
func (s *Scorer) ScoreBatchInto(dst [][]float64, contexts [][]int) [][]float64 {
	vocab := s.m.cfg.Vocab
	if cap(dst) >= len(contexts) {
		dst = dst[:len(contexts)]
	} else {
		dst = append(dst[:0], make([][]float64, len(contexts))...)
	}
	for b := range dst {
		if cap(dst[b]) >= vocab {
			dst[b] = dst[b][:vocab]
			for i := range dst[b] {
				dst[b][i] = 0
			}
		} else {
			dst[b] = make([]float64, vocab)
		}
	}

	// Truncate to the window and drop empty contexts from the kernel
	// (their rows stay all-zero).
	window := s.m.cfg.Window
	s.slots, s.ctxs, s.lens = s.slots[:0], s.ctxs[:0], s.lens[:0]
	for b, ctx := range contexts {
		if len(ctx) > window {
			ctx = ctx[len(ctx)-window:]
		}
		if len(ctx) == 0 {
			continue
		}
		s.slots = append(s.slots, b)
		s.ctxs = append(s.ctxs, ctx)
		s.lens = append(s.lens, len(ctx))
	}
	if len(s.slots) == 0 {
		return dst
	}

	// Score-cache lookup: hits copy their memoized row straight into dst
	// and leave the kernel; the remaining misses are compacted in place.
	// The generation is captured before scoring — if a weight change
	// lands mid-batch (impossible under detect.Online's lock, but cheap
	// to defend against), the insertions below are stamped already-stale
	// and can never be served.
	cache := s.m.scoreCache.Load()
	var cacheGen uint64
	if cache != nil {
		cacheGen = cache.Gen()
		w := 0
		for i := range s.slots {
			if cache.GetInto(dst[s.slots[i]], s.ctxs[i]) {
				continue
			}
			s.slots[w], s.ctxs[w], s.lens[w] = s.slots[i], s.ctxs[i], s.lens[i]
			w++
		}
		s.slots, s.ctxs, s.lens = s.slots[:w], s.ctxs[:w], s.lens[:w]
		if w == 0 {
			return dst
		}
	}

	// Cache misses run the forward pass and the Eq. 10 read-out, at the
	// model's scoring precision.
	if s.m.prec32.Load() {
		s.kernel32().score(s, dst)
	} else {
		s.kernel64().score(s, dst)
	}
	if cache != nil {
		for i, b := range s.slots {
			cache.PutGen(s.ctxs[i], dst[b], cacheGen)
		}
	}
	return dst
}

// RankBatchInto returns, for each (contexts[b], keys[b]) pair, the
// 1-based similarity rank of keys[b] given its context — the batched
// RankOf — written into dst (grown as needed). A PadKey or
// out-of-vocabulary key ranks last (Vocab). len(keys) must equal
// len(contexts).
func (s *Scorer) RankBatchInto(dst []int, contexts [][]int, keys []int) []int {
	if len(keys) != len(contexts) {
		panic("transdas: RankBatchInto contexts and keys length mismatch")
	}
	if cap(dst) >= len(contexts) {
		dst = dst[:len(contexts)]
	} else {
		dst = append(dst[:0], make([]int, len(contexts))...)
	}
	sims := s.ScoreBatchInto(s.arenaSims(len(contexts)), contexts)
	for b, row := range sims {
		dst[b] = rankIn(row, keys[b])
	}
	return dst
}

// rankIn computes the 1-based rank of key within sims (see RankOf).
func rankIn(sims []float64, key int) int {
	if key <= 0 || key >= len(sims) {
		return len(sims)
	}
	target := sims[key]
	rank := 1
	for k := 1; k < len(sims); k++ {
		if k != key && sims[k] > target {
			rank++
		}
	}
	return rank
}

// kindMask returns the model's attention mask at cfg.Window.
func (s *Scorer) kindMask() *tensor.Matrix {
	if s.mask == nil {
		s.mask = nn.BuildMask(s.m.cfg.Mask, s.m.cfg.Window)
	}
	return s.mask
}

// inVocab reports whether key has an embedding row: PadKey, negative
// and out-of-vocabulary keys embed to the zero vector.
func (s *Scorer) inVocab(key int) bool {
	return key != s.m.emb.PadKey && key >= 0 && key < s.m.cfg.Vocab
}
