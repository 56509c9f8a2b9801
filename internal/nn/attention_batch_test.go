package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/tensor"
)

// TestForwardBatchMatchesSequential stacks several sequences, pads them
// to a common length, and checks that every real output row of one
// ForwardBatch pass equals the row produced by an independent batch-of-one pass
// over that sequence alone. This is the core guarantee behind the
// batch-first scoring API: padding and batching change nothing about
// Eq. 2–4's per-sequence results.
func TestForwardBatchMatchesSequential(t *testing.T) {
	for _, kind := range []MaskKind{MaskBidirectionalExceptSelf, MaskFull, MaskFuture} {
		rng := rand.New(rand.NewSource(41))
		const dim, L = 8, 6
		att := NewMultiHeadAttention("att", dim, 2, kind, rng)
		lengths := []int{1, 3, 6, 4}
		batch := len(lengths)

		// One random embedding row per real position; padded rows zero,
		// mirroring the PadKey embedding.
		seqs := make([]*tensor.Matrix, batch)
		stacked := tensor.NewMatrix(batch*L, dim)
		for b, n := range lengths {
			seqs[b] = tensor.NewRandN(n, dim, 1, rng)
			for i := 0; i < n; i++ {
				copy(stacked.Row(b*L+i), seqs[b].Row(i))
			}
		}

		tp := tensor.NewTape()
		mask := BuildBatchMask(kind, batch, L, lengths)
		out := att.ForwardBatch(tp, tp.Const(stacked), batch, mask).Value

		for b, n := range lengths {
			tps := tensor.NewTape()
			want := att.ForwardBatch(tps, tps.Const(seqs[b]), 1, nil).Value
			for i := 0; i < n; i++ {
				got, ref := out.Row(b*L+i), want.Row(i)
				for c := range ref {
					if d := math.Abs(got[c] - ref[c]); d > 1e-12 {
						t.Fatalf("mask %v seq %d row %d col %d: batched %g vs sequential %g (diff %g)",
							kind, b, i, c, got[c], ref[c], d)
					}
				}
			}
		}
	}
}

// TestBatchMaskZeroesPaddedColumns checks the padding-mask mechanism
// directly: post-softmax attention weights on padded key positions are
// exactly zero, so padding cannot leak into real positions even at
// float64 round-off scale.
func TestBatchMaskZeroesPaddedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const dim, L, batch = 4, 5, 2
	att := NewMultiHeadAttention("att", dim, 1, MaskBidirectionalExceptSelf, rng)
	att.Capture = true
	lengths := []int{2, 4}

	stacked := tensor.NewRandN(batch*L, dim, 1, rng)
	tp := tensor.NewTape()
	att.ForwardBatch(tp, tp.Const(stacked), batch, BuildBatchMask(att.Mask, batch, L, lengths))

	for _, w := range att.LastWeights() {
		if w.Rows != batch*L || w.Cols != L {
			t.Fatalf("captured weights %dx%d, want %dx%d", w.Rows, w.Cols, batch*L, L)
		}
		for b, n := range lengths {
			for i := 0; i < L; i++ {
				row := w.Row(b*L + i)
				var sum float64
				for j, v := range row {
					if j >= n && v != 0 {
						t.Fatalf("seq %d row %d attends padded col %d with weight %g", b, i, j, v)
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("seq %d row %d weights sum to %g", b, i, sum)
				}
			}
		}
	}
}
