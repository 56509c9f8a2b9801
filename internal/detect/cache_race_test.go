package detect

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/workload"
)

// sentinelUCAD trains a small detector with a caller-chosen seed so two
// instances produce measurably different similarity rows — the swap
// tests tell "which model scored this" from the row itself.
func sentinelUCAD(t *testing.T, seed int64) (*core.UCAD, *workload.Generator) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 10
	cfg.Model.Heads = 2
	cfg.Model.Blocks = 2
	cfg.Model.Window = 24
	cfg.Model.TopP = 8
	cfg.Model.Epochs = 3
	cfg.Model.Dropout = 0
	cfg.Model.MinContext = 3
	cfg.Model.Seed = seed
	cfg.SkipClean = true
	g := workload.NewGenerator(workload.ScenarioI(), seed)
	u, err := core.Train(cfg, g.GenerateSessions(30), nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, g
}

// refSims scores every context uncached (cache temporarily detached)
// and returns deep copies — the ground truth for one model's weights.
func refSims(u *core.UCAD, ctxs [][]int) [][]float64 {
	c := u.Model.ScoreCache()
	u.Model.SetScoreCache(nil)
	defer u.Model.SetScoreCache(c)
	out := make([][]float64, len(ctxs))
	for i, ctx := range ctxs {
		out[i] = append([]float64(nil), u.Model.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]...)
	}
	return out
}

func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSwapModelCarriesAndInvalidatesCache pins the hot-swap contract:
// the cache object (and its monotonic counters) survives the swap, the
// generation advances so no pre-swap row is ever served, and the old
// model is detached so stragglers cannot poison the carried cache.
func TestSwapModelCarriesAndInvalidatesCache(t *testing.T) {
	uA, g := sentinelUCAD(t, 11)
	uB, _ := sentinelUCAD(t, 37)
	c := scorecache.New(256)
	uA.Model.SetScoreCache(c)
	o := NewOnline(uA)

	s := g.NewSession()
	keys := make([]int, len(s.Ops))
	for j, op := range s.Ops {
		keys[j] = uA.Vocab.Key(op.SQL)
	}
	if len(keys) < 6 {
		t.Skip("session too short")
	}
	ctx := keys[:5]
	refA := refSims(uA, [][]int{ctx})[0]
	refB := refSims(uB, [][]int{ctx})[0]
	if rowsEqual(refA, refB) {
		t.Fatal("sentinel models score identically; swap test cannot discriminate")
	}

	// Warm the cache under model A.
	if got := uA.Model.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]; !rowsEqual(got, refA) {
		t.Fatal("pre-swap score does not match model A reference")
	}
	preStats := c.Stats()
	gen := c.Gen()

	o.SwapModel(uB)

	if uB.Model.ScoreCache() != c {
		t.Fatal("cache was not carried onto the replacement model")
	}
	if uA.Model.ScoreCache() != nil {
		t.Fatal("old model still holds the carried cache")
	}
	if c.Gen() == gen {
		t.Fatal("swap did not advance the cache generation")
	}
	if got := uB.Model.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]; !rowsEqual(got, refB) {
		t.Fatal("post-swap score served a stale (model A) row")
	}
	var served, wantB bytes.Buffer
	if err := o.Save(&served); err != nil {
		t.Fatal(err)
	}
	if err := uB.Save(&wantB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), wantB.Bytes()) {
		t.Fatal("Online does not serve the swapped-in model")
	}
	post := c.Stats()
	if post.Hits < preStats.Hits || post.Misses <= preStats.Misses {
		t.Fatalf("counters not monotonic across swap: %+v -> %+v", preStats, post)
	}
	// Swapping in a model that brings its own cache (old model has none)
	// must bump that cache instead.
	uC, _ := sentinelUCAD(t, 53)
	cc := scorecache.New(64)
	uC.Model.SetScoreCache(cc)
	o2 := NewOnline(uC)
	uD, _ := sentinelUCAD(t, 59)
	uC.Model.SetScoreCache(nil)
	uD.Model.SetScoreCache(cc)
	ccGen := cc.Gen()
	o2.SwapModel(uD)
	if cc.Gen() == ccGen {
		t.Fatal("incoming model's own cache was not bumped")
	}
}

// TestCachedScoringSwapRetrainRace hammers the cached scoring path from
// 16 goroutines while the model is hot-swapped between two sentinel
// builds and then fine-tuned. Every observed similarity row must
// exactly match the uncached reference of the model that scored it — a
// stale cached row from a previous generation, or one carried across
// models, fails the test. Run under -race.
func TestCachedScoringSwapRetrainRace(t *testing.T) {
	uA, g := sentinelUCAD(t, 11)
	uB, _ := sentinelUCAD(t, 37)
	c := scorecache.New(1024)
	uA.Model.SetScoreCache(c)
	o := NewOnline(uA)

	// Fixed contexts the scorers replay; references per model.
	var ctxs [][]int
	var targets []int
	for i := 0; i < 4; i++ {
		s := g.NewSession()
		keys := make([]int, len(s.Ops))
		for j, op := range s.Ops {
			keys[j] = uA.Vocab.Key(op.SQL)
		}
		if len(keys) < 6 {
			continue
		}
		ctxs = append(ctxs, keys[:4], keys[:5])
		targets = append(targets, keys[4], keys[5])
	}
	if len(ctxs) == 0 {
		t.Skip("no usable sessions generated")
	}
	refA := refSims(uA, ctxs)
	refB := refSims(uB, ctxs)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ranks := make([]int, 0, len(ctxs))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The rank path must stay consistent under swaps: every
				// rank is within [1, Vocab] and the whole batch reflects
				// one model version (enforced by the read lock).
				ranks = o.RankBatch(ranks[:0], ctxs, targets)
				vocab := len(refA[0])
				for _, r := range ranks {
					if r < 1 || r > vocab {
						select {
						case errCh <- "rank out of range":
						default:
						}
						return
					}
				}
				// The weights are frozen (A/B) while they swap, so a row
				// scored on either model — the serving one or a straggler
				// on the one just swapped out — must be byte-identical to
				// that model's reference: a stale or cross-model cached row
				// fails here even if it matches the *other* sentinel.
				m, want := uA, refA
				if w%2 == 1 {
					m, want = uB, refB
				}
				sims := m.Model.NewScorer().ScoreBatchInto(nil, [][]int{ctxs[i%len(ctxs)]})[0]
				if !rowsEqual(sims, want[i%len(ctxs)]) {
					select {
					case errCh <- "scored row does not match the serving model's reference":
					default:
					}
					return
				}
			}
		}(w)
	}
	serving := uA
	for i := 0; i < 30; i++ {
		if serving == uA {
			serving = uB
		} else {
			serving = uA
		}
		o.SwapModel(serving)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}

	// Phase 2: a fine-tune round under concurrent cached scoring. The
	// weights move, so rows are no longer pinnable mid-flight; afterwards
	// the cached path must agree exactly with an uncached recomputation.
	pool := g.GenerateSessions(6)
	stop2 := make(chan struct{})
	var wg2 sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			ranks := make([]int, 0, len(ctxs))
			for {
				select {
				case <-stop2:
					return
				default:
					ranks = o.RankBatch(ranks[:0], ctxs, targets)
				}
			}
		}()
	}
	o.FineTune(pool, 1, nil)
	close(stop2)
	wg2.Wait()

	final := serving
	gotCached := make([][]float64, len(ctxs))
	for i, ctx := range ctxs {
		gotCached[i] = append([]float64(nil), final.Model.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]...)
	}
	ref := refSims(final, ctxs)
	for i := range ctxs {
		for k := range ref[i] {
			if math.Abs(gotCached[i][k]-ref[i][k]) != 0 {
				t.Fatalf("ctx %d key %d: post-retrain cached %v != uncached %v",
					i, k, gotCached[i][k], ref[i][k])
			}
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("race exercised no cache traffic: %+v", st)
	}
}
