package transdas

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/scorecache"
)

// cacheTestContexts builds a deterministic mixed batch of contexts for
// cache round-trip tests.
func cacheTestContexts(rng *rand.Rand, m *Model, n int) [][]int {
	ctxs := make([][]int, n)
	for i := range ctxs {
		ctxs[i] = randomContext(rng, m.cfg.Vocab, 1+rng.Intn(m.cfg.Window))
	}
	return ctxs
}

// TestScoreCacheHitReturnsIdenticalRows: a warm cache must return
// byte-identical similarity rows to the forward pass that populated it,
// and the counters must account for every lookup.
func TestScoreCacheHitReturnsIdenticalRows(t *testing.T) {
	m := trainToy(t)
	c := scorecache.New(256)
	m.SetScoreCache(c)
	rng := rand.New(rand.NewSource(5))
	ctxs := cacheTestContexts(rng, m, 12)

	s := m.NewScorer()
	cold := s.ScoreBatchInto(nil, ctxs)
	coldCopy := make([][]float64, len(cold))
	for i, row := range cold {
		coldCopy[i] = append([]float64(nil), row...)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != uint64(len(ctxs)) {
		t.Fatalf("cold pass stats = %+v, want 0 hits / %d misses", st, len(ctxs))
	}

	// A different scorer on the same model must hit the shared cache.
	warm := m.NewScorer().ScoreBatchInto(nil, ctxs)
	for i := range warm {
		for k := range warm[i] {
			if warm[i][k] != coldCopy[i][k] {
				t.Fatalf("ctx %d key %d: cached %v != computed %v", i, k, warm[i][k], coldCopy[i][k])
			}
		}
	}
	st = c.Stats()
	if st.Hits != uint64(len(ctxs)) || st.Misses != uint64(len(ctxs)) {
		t.Fatalf("warm pass stats = %+v, want %d hits / %d misses", st, len(ctxs), len(ctxs))
	}
	if c.Len() == 0 {
		t.Fatal("cache empty after populated pass")
	}
}

// TestScoreCacheMixedHitMissBatch: a batch interleaving cached and
// novel contexts must produce exactly the uncached scores for both
// kinds — exercising the miss-compaction path in ScoreBatchInto.
func TestScoreCacheMixedHitMissBatch(t *testing.T) {
	m := trainToy(t)
	rng := rand.New(rand.NewSource(9))
	all := cacheTestContexts(rng, m, 10)

	// Reference: no cache attached.
	ref := make([][]float64, len(all))
	for i, row := range m.NewScorer().ScoreBatchInto(nil, all) {
		ref[i] = append([]float64(nil), row...)
	}

	c := scorecache.New(256)
	m.SetScoreCache(c)
	defer m.SetScoreCache(nil)
	// Seed the cache with the even-index contexts only.
	even := make([][]int, 0, len(all)/2)
	for i := 0; i < len(all); i += 2 {
		even = append(even, all[i])
	}
	m.NewScorer().ScoreBatchInto(nil, even)

	got := m.NewScorer().ScoreBatchInto(nil, all)
	for i := range all {
		for k := range got[i] {
			if math.Abs(got[i][k]-ref[i][k]) > 1e-12 {
				t.Fatalf("ctx %d key %d: mixed batch %v != reference %v", i, k, got[i][k], ref[i][k])
			}
		}
	}
	st := c.Stats()
	if st.Hits != uint64(len(even)) {
		t.Fatalf("stats = %+v, want %d hits from the seeded contexts", st, len(even))
	}
}

// TestScoreCacheInvalidatedByFineTune: a cache moved from a model onto
// its fine-tuned copy the way the serving layer installs one (detached,
// bumped, attached) must never serve pre-tune rows — the copy's
// scores have to match an uncached computation on its weights — and
// the original keeps its weights, scores and float32 snapshot.
func TestScoreCacheInvalidatedByFineTune(t *testing.T) {
	m := trainToy(t)
	c := scorecache.New(256)
	m.SetScoreCache(c)
	rng := rand.New(rand.NewSource(13))
	ctxs := cacheTestContexts(rng, m, 8)

	before := freeze(m, ctxs)
	stale := before.scores
	gen := c.Gen()
	tuned, _ := m.FineTune(toySessions(10, rng), 3, nil)
	if c.Gen() != gen || tuned.ScoreCache() != nil {
		t.Fatal("FineTune touched the original's cache or attached one to the copy")
	}
	requireUnchanged(t, m, ctxs, before)
	m.SetScoreCache(nil)
	c.Bump()
	tuned.SetScoreCache(c)

	got := tuned.NewScorer().ScoreBatchInto(nil, ctxs)
	tuned.SetScoreCache(nil)
	ref := tuned.NewScorer().ScoreBatchInto(nil, ctxs)
	changed := false
	for i := range ctxs {
		for k := range got[i] {
			if got[i][k] != ref[i][k] {
				t.Fatalf("ctx %d key %d: post-tune cached path %v != uncached %v", i, k, got[i][k], ref[i][k])
			}
			if math.Abs(got[i][k]-stale[i][k]) > 1e-12 {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("fine-tune left every score identical; invalidation check is vacuous")
	}
}

// TestScoreCacheComposesWithFloat32: cache + float32 kernel together
// must return the float32 scores on miss and the same rows on hit.
func TestScoreCacheComposesWithFloat32(t *testing.T) {
	m := trainToy(t)
	rng := rand.New(rand.NewSource(17))
	ctxs := cacheTestContexts(rng, m, 6)

	m.SetScorePrecision(PrecisionFloat32)
	defer m.SetScorePrecision(PrecisionFloat64)
	ref := make([][]float64, len(ctxs))
	for i, row := range m.NewScorer().ScoreBatchInto(nil, ctxs) {
		ref[i] = append([]float64(nil), row...)
	}

	c := scorecache.New(64)
	m.SetScoreCache(c)
	defer m.SetScoreCache(nil)
	cold := m.NewScorer().ScoreBatchInto(nil, ctxs)
	for i := range cold {
		for k := range cold[i] {
			if cold[i][k] != ref[i][k] {
				t.Fatalf("ctx %d key %d: cached float32 miss %v != plain float32 %v", i, k, cold[i][k], ref[i][k])
			}
		}
	}
	warm := m.NewScorer().ScoreBatchInto(nil, ctxs)
	for i := range warm {
		for k := range warm[i] {
			if warm[i][k] != ref[i][k] {
				t.Fatalf("ctx %d key %d: cached float32 hit %v != plain float32 %v", i, k, warm[i][k], ref[i][k])
			}
		}
	}
	if st := c.Stats(); st.Hits != uint64(len(ctxs)) {
		t.Fatalf("stats = %+v, want %d hits on the warm pass", st, len(ctxs))
	}
}

// TestRankBatchUsesCache: the rank path must flow through the same
// cache (RankBatchInto scores via ScoreBatchInto).
func TestRankBatchUsesCache(t *testing.T) {
	m := trainToy(t)
	c := scorecache.New(64)
	m.SetScoreCache(c)
	defer m.SetScoreCache(nil)
	rng := rand.New(rand.NewSource(21))
	ctxs := cacheTestContexts(rng, m, 5)
	keys := make([]int, len(ctxs))
	for i := range keys {
		keys[i] = 1 + rng.Intn(m.cfg.Vocab-1)
	}
	s := m.NewScorer()
	r1 := append([]int(nil), s.RankBatchInto(nil, ctxs, keys)...)
	r2 := s.RankBatchInto(nil, ctxs, keys)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rank %d changed across cached calls: %d vs %d", i, r1[i], r2[i])
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses != uint64(len(ctxs)) {
		t.Fatalf("stats = %+v, want warm hits and exactly %d misses", st, len(ctxs))
	}
}

// TestScoreBatchWarmCacheAllocFree: with every context cached, the
// batch scoring path must not allocate — rows are the caller's reused
// buffers and sims come from the cache.
func TestScoreBatchWarmCacheAllocFree(t *testing.T) {
	m := trainToy(t)
	c := scorecache.New(64)
	m.SetScoreCache(c)
	defer m.SetScoreCache(nil)
	rng := rand.New(rand.NewSource(25))
	ctxs := cacheTestContexts(rng, m, 4)
	s := m.NewScorer()
	dst := s.ScoreBatchInto(nil, ctxs) // populate cache and rows
	avg := testing.AllocsPerRun(50, func() {
		dst = s.ScoreBatchInto(dst, ctxs)
	})
	if avg > 0 {
		t.Fatalf("warm cached ScoreBatchInto allocates %.1f times per call, want 0", avg)
	}
}
