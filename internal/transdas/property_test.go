package transdas

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// propModel is a tiny untrained model shared by the property tests;
// the invariants below must hold regardless of training state.
func propModel() *Model {
	cfg := testConfig()
	cfg.Epochs = 1
	return New(cfg)
}

func randKeys(raw []uint8, vocab int) []int {
	keys := make([]int, 0, len(raw))
	for _, r := range raw {
		keys = append(keys, int(r)%vocab) // includes PadKey 0
	}
	return keys
}

// Property: similarities are probabilities and k0 scores zero.
func TestScoreNextBounds(t *testing.T) {
	m := propModel()
	f := func(raw []uint8) bool {
		keys := randKeys(raw, m.cfg.Vocab)
		if len(keys) == 0 {
			keys = []int{1}
		}
		sims := m.NewScorer().ScoreBatchInto(nil, [][]int{keys})[0]
		if len(sims) != m.cfg.Vocab || sims[0] != 0 {
			return false
		}
		for _, s := range sims[1:] {
			if s <= 0 || s >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: RankOf is consistent with the similarity row's ordering and ranks
// form a permutation prefix (1..V-1 for valid keys).
func TestRankOfConsistency(t *testing.T) {
	m := propModel()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		ctx := make([]int, n)
		for i := range ctx {
			ctx[i] = 1 + rng.Intn(m.cfg.Vocab-1)
		}
		sims := m.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]
		type kv struct {
			k int
			s float64
		}
		var all []kv
		for k := 1; k < len(sims); k++ {
			all = append(all, kv{k, sims[k]})
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].s > all[j].s })
		for want, item := range all {
			got := m.RankOf(ctx, item.k)
			// Ties may permute ranks; the similarity at the reported
			// rank position must match.
			if got != want+1 && sims[item.k] != all[got-1].s {
				t.Fatalf("rank of key %d = %d, expected %d (sim %v)", item.k, got, want+1, item.s)
			}
		}
	}
}

// Property: DetectSession reports sorted in-range indices, never before
// MinContext, and IsAnomalous agrees with it.
func TestDetectSessionIndexInvariants(t *testing.T) {
	m := propModel()
	f := func(raw []uint8) bool {
		keys := randKeys(raw, m.cfg.Vocab)
		anoms := m.DetectSession(keys)
		for i, idx := range anoms {
			if idx < m.cfg.MinContext || idx >= len(keys) {
				return false
			}
			if i > 0 && anoms[i-1] >= idx {
				return false
			}
		}
		return m.IsAnomalous(keys) == (len(anoms) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: extractWindows covers every transition as a final-position
// target exactly once at stride 1, windows never exceed L, and inputs
// are always contiguous subsequences ending right before their final
// target.
func TestExtractWindowsProperties(t *testing.T) {
	f := func(raw []uint8, l8 uint8) bool {
		keys := randKeys(raw, 50)
		L := 2 + int(l8)%12
		ws := extractWindows(keys, L, 1)
		if len(keys) < 2 {
			return ws == nil
		}
		if len(ws) != len(keys)-1 {
			return false
		}
		for t, w := range ws {
			if len(w.keys) > L || len(w.keys) != len(w.targets) {
				return false
			}
			// Window t ends at position t with final target keys[t+1].
			if w.keys[len(w.keys)-1] != keys[t] || w.targets[len(w.targets)-1] != keys[t+1] {
				return false
			}
			for j, tk := range w.targets {
				start := t - len(w.keys) + 1
				if keys[start+j] != w.keys[j] || keys[start+j+1] != tk {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: training on arbitrary (valid-key) sessions never panics and
// always returns as many epoch losses as configured.
func TestTrainTotal(t *testing.T) {
	f := func(raw [][]uint8) bool {
		cfg := testConfig()
		cfg.Epochs = 1
		m := New(cfg)
		var sessions [][]int
		for _, r := range raw {
			if len(r) > 16 {
				r = r[:16]
			}
			sessions = append(sessions, randKeys(r, cfg.Vocab))
		}
		res := m.Train(sessions, nil)
		return len(res.EpochLoss) <= cfg.Epochs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: negative samples never collide with the target and are
// valid keys (or -1 for no-target positions).
func TestSampleNegativesInvariant(t *testing.T) {
	m := propModel()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = 1 + rng.Intn(m.cfg.Vocab-1)
		}
		for _, w := range extractWindows(keys, m.cfg.Window, 1) {
			neg := m.sampleNegativesInto(nil, w, m.rng)
			for i, nk := range neg {
				if w.targets[i] < 0 {
					if nk != -1 {
						t.Fatal("no-target position must have no negative")
					}
					continue
				}
				if nk == w.targets[i] {
					t.Fatal("negative equals target")
				}
				if nk < -1 || nk == 0 || nk >= m.cfg.Vocab {
					t.Fatalf("invalid negative %d", nk)
				}
			}
		}
	}
}

// Detection must be safe for concurrent use: scoring and
// DetectSession are read-only after training.
func TestConcurrentDetection(t *testing.T) {
	m := trainToy(t)
	sessions := toySessions(8, rand.New(rand.NewSource(17)))
	done := make(chan bool, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			ok := true
			for i := 0; i < 10; i++ {
				s := sessions[(w+i)%len(sessions)]
				m.NewScorer().ScoreBatchInto(nil, [][]int{s[:3]})
				m.DetectSession(s)
			}
			done <- ok
		}(w)
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Fatal("concurrent detection failed")
		}
	}
}
