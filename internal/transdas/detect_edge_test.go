package transdas

import "testing"

// Edge cases of the detection API: empty preceding context, p beyond the
// vocabulary, out-of-vocabulary keys and sessions shorter than
// MinContext. These are the inputs a live serving layer feeds the model
// before a session has accumulated history.

func TestScoreNextEmptyContext(t *testing.T) {
	m := New(testConfig())
	sims := m.NewScorer().ScoreBatchInto(nil, [][]int{nil})[0]
	if len(sims) != m.cfg.Vocab {
		t.Fatalf("sims length = %d, want %d", len(sims), m.cfg.Vocab)
	}
	for k, s := range sims {
		if s != 0 {
			t.Fatalf("sim[%d] = %v, want 0 for empty context", k, s)
		}
	}
}

func TestRankOfEmptyContext(t *testing.T) {
	m := New(testConfig())
	if got := m.RankOf(nil, 1); got != 1 {
		t.Fatalf("in-vocab key with empty context ranks %d, want 1", got)
	}
	if got := m.RankOf([]int{}, m.cfg.Vocab-1); got != 1 {
		t.Fatalf("in-vocab key with empty context ranks %d, want 1", got)
	}
}

func TestRankOfOutOfVocabulary(t *testing.T) {
	m := trainToy(t)
	ctx := []int{1, 2, 3}
	for _, key := range []int{0, -3, m.cfg.Vocab, m.cfg.Vocab + 7} {
		if got := m.RankOf(ctx, key); got != m.cfg.Vocab {
			t.Fatalf("RankOf(ctx, %d) = %d, want last rank %d", key, got, m.cfg.Vocab)
		}
	}
}

func TestDetectSessionShorterThanMinContext(t *testing.T) {
	m := New(testConfig()) // MinContext = 2
	for _, keys := range [][]int{nil, {}, {1}, {1, 2}} {
		if got := m.DetectSession(keys); len(got) != 0 {
			t.Fatalf("DetectSession(%v) = %v, want none", keys, got)
		}
	}
	if m.IsAnomalous([]int{1}) {
		t.Fatal("single-op session must not be anomalous")
	}
}

func TestDetectSessionZeroMinContext(t *testing.T) {
	cfg := testConfig()
	cfg.MinContext = 0
	m := New(cfg)
	// The first operation is judged against an empty context; it must
	// not panic, and an in-vocabulary first key ranks 1 (never flagged).
	if got := m.DetectSession([]int{1, 2}); len(got) > 2 {
		t.Fatalf("unexpected positions %v", got)
	}
	// An out-of-vocabulary first key still flags position 0.
	got := m.DetectSession([]int{0, 1})
	if len(got) == 0 || got[0] != 0 {
		t.Fatalf("OOV first op not flagged: %v", got)
	}
}
