package serve

// Tests for the one record of which model serves: a fine-tune round
// trains a copy off the serving path and installs it under the same
// barrier an admin upload swaps through, which carries the score cache.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/transdas"
)

// verifiedSessions builds n all-normal sessions of the toy workload,
// the pool a fine-tune round absorbs.
func verifiedSessions(n int) []*session.Session {
	out := make([]*session.Session, n)
	for i := range out {
		s := &session.Session{ID: fmt.Sprintf("v-%d", i), User: "app"}
		for p := 0; p < 12; p++ {
			s.Ops = append(s.Ops, session.Operation{SQL: normalStatement(i + p)})
		}
		out[i] = s
	}
	return out
}

// reloaded is u saved and loaded back: the same weights under a
// vocabulary object of its own, as an admin upload of u would arrive.
func reloaded(t *testing.T, u *core.UCAD) *core.UCAD {
	t.Helper()
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// toyContexts keys a few growing prefixes of the toy workload.
func toyContexts(u *core.UCAD) [][]int {
	var ctxs [][]int
	for n := 2; n <= 7; n++ {
		ctx := make([]int, n)
		for p := range ctx {
			ctx[p] = u.Vocab.Key(normalStatement(p + n))
		}
		ctxs = append(ctxs, ctx)
	}
	return ctxs
}

// uncachedRows scores ctxs on a cache-less copy of m's weights: the
// ground truth for m, computed without touching m or its cache.
func uncachedRows(t *testing.T, m *transdas.Model, ctxs [][]int) [][]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Error(err)
		return nil
	}
	c, err := transdas.Load(&buf)
	if err != nil {
		t.Error(err)
		return nil
	}
	return c.NewScorer().ScoreBatchInto(nil, ctxs)
}

func sameRow(a, b []float64) bool {
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

// longRound fills the verified pool and starts a background fine-tune
// round of epochs epochs, returning once the round has finished its
// first epoch — so it is inside the fine-tune, not waiting to start.
func longRound(t *testing.T, s *Service, epochs int) {
	t.Helper()
	for _, sess := range verifiedSessions(12) {
		s.addVerified(sess)
	}
	s.maybeRetrain()
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.trainEpochs.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the fine-tune round never finished an epoch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if int(s.metrics.trainEpochs.Value()) >= epochs {
		t.Fatalf("the round finished all %d epochs before the test could act; it proves nothing", epochs)
	}
}

// roundEpochs is long enough that a round outlasts ranking one job by
// orders of magnitude, short enough to keep each test under two
// seconds under the race detector.
const roundEpochs = 24

// TestRankingRunsDuringRetrain: a fine-tune round trains a copy, so a
// job submitted while the round runs is ranked, and raises its alert,
// before the round ends — nothing waits for the round.
func TestRankingRunsDuringRetrain(t *testing.T) {
	s := NewService(testUCAD(t), Config{Workers: 1, Shards: 1, SweepEvery: -1, RetrainAfter: 1, RetrainEpochs: roundEpochs})
	defer s.Stop()
	longRound(t, s, roundEpochs)
	if !s.retraining.Load() {
		t.Fatal("no round is running")
	}
	for _, sql := range []string{normalStatement(0), normalStatement(1), anomalySQL} {
		if err := s.Ingest(Event{ClientID: "c", User: "app", SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.Alerts("")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no alert")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if done := s.metrics.trainEpochs.Value(); int(done) >= roundEpochs {
		t.Fatalf("the alert waited for the round: all %d epochs were done when it was raised", done)
	}
}

// TestFlaggedJobSurvivesFineTuneSwap: a fine-tune install keeps the
// vocabulary, so a flagged job queued across it is still ranked into
// an alert.
func TestFlaggedJobSurvivesFineTuneSwap(t *testing.T) {
	s := NewService(testUCAD(t), Config{Workers: 1, Shards: 1, SweepEvery: -1, RetrainEpochs: 1})
	defer s.Stop()
	gate := make(chan struct{})
	s.engine.Stop()
	s.engine = NewEngine(heldRanker{servingRanker{s}, gate}, 1, 1, 1024, 1, s.onResult)
	for _, sql := range []string{normalStatement(0), normalStatement(1), anomalySQL} {
		if err := s.Ingest(Event{ClientID: "c", User: "app", SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.model.Load()
	for _, sess := range verifiedSessions(4) {
		s.addVerified(sess)
	}
	if n, _ := s.retrain(); n != 4 || s.model.Load() == before {
		t.Fatalf("round absorbed %d sessions and installed no copy", n)
	}
	close(gate)
	s.Drain()
	if n := s.midFlags.Load(); n != 1 {
		t.Fatalf("%d mid-session flags, want the queued anomaly's 1", n)
	}
	if alerts := s.Alerts(""); len(alerts) != 1 {
		t.Fatalf("%d alerts, want 1", len(alerts))
	}
}

// TestUploadDuringRetrainWins: a model uploaded while a round runs is
// the model serving after the round; the round's copy, trained from
// the model the upload replaced, is discarded.
func TestUploadDuringRetrainWins(t *testing.T) {
	s := NewService(testUCAD(t), Config{Workers: 1, Shards: 1, SweepEvery: -1, RetrainAfter: 1, RetrainEpochs: roundEpochs})
	defer s.Stop()
	longRound(t, s, roundEpochs)
	upload := testUCAD(t)
	if err := s.SwapModel(upload); err != nil {
		t.Fatal(err)
	}
	if !s.retraining.Load() {
		t.Fatal("the upload waited for the round")
	}
	s.retrainWG.Wait()
	if s.retrains.Load() != 1 {
		t.Fatalf("retrains = %d, want the round counted", s.retrains.Load())
	}
	if got := s.model.Load().ucad; got != upload {
		t.Fatal("the round's copy replaced the uploaded model")
	}
}

// TestFineTuneInstallIsNotASwap: ucad_model_swaps_total counts admin
// replacements only; a fine-tune install counts in retrains.
func TestFineTuneInstallIsNotASwap(t *testing.T) {
	s := NewService(testUCAD(t), Config{Workers: 1, Shards: 1, SweepEvery: -1, RetrainAfter: 1, RetrainEpochs: 1})
	defer s.Stop()
	before := s.model.Load()
	for _, sess := range verifiedSessions(2) {
		s.addVerified(sess)
	}
	s.maybeRetrain()
	s.retrainWG.Wait()
	if s.model.Load() == before {
		t.Fatal("the round installed no copy")
	}
	if st := s.Stats(); st.Retrains != 1 || st.ModelSwaps != 0 {
		t.Fatalf("retrains %d, model swaps %d; want 1 and 0", st.Retrains, st.ModelSwaps)
	}
}

// TestSwapModelCarriesAndInvalidatesCache pins the install contract
// for the score cache: the cache object (and its monotonic counters)
// moves onto the new model, its generation advances so no row the old
// model scored is served for the new one, and the old model is
// detached so stragglers cannot poison it. A model swapped in over one
// without a cache keeps (and bumps) its own.
func TestSwapModelCarriesAndInvalidatesCache(t *testing.T) {
	uA := testUCAD(t)
	tuned, _ := uA.FineTune(verifiedSessions(8), 3, nil)
	uB := reloaded(t, tuned)
	c := scorecache.New(256)
	uA.Model.SetScoreCache(c)
	s := NewService(uA, Config{Workers: 1, Shards: 2, SweepEvery: -1})
	defer s.Stop()

	ctxs := toyContexts(uA)
	refA, refB := uncachedRows(t, uA.Model, ctxs), uncachedRows(t, uB.Model, ctxs)
	if sameRow(refA[0], refB[0]) {
		t.Fatal("the two models score identically; the test cannot tell them apart")
	}
	uA.Model.NewScorer().ScoreBatchInto(nil, ctxs) // warm under A
	pre, gen := c.Stats(), c.Gen()

	if err := s.SwapModel(uB); err != nil {
		t.Fatal(err)
	}
	if uB.Model.ScoreCache() != c || uA.Model.ScoreCache() != nil || s.model.Load().cache != c {
		t.Fatal("the cache was not moved from the old model onto the new one")
	}
	if c.Gen() == gen {
		t.Fatal("the swap did not advance the cache generation")
	}
	for i, row := range uB.Model.NewScorer().ScoreBatchInto(nil, ctxs) {
		if !sameRow(row, refB[i]) {
			t.Fatal("the new model was served a row the old one scored")
		}
	}
	if post := c.Stats(); post.Hits < pre.Hits || post.Misses <= pre.Misses {
		t.Fatalf("counters not monotonic across the swap: %+v -> %+v", pre, post)
	}

	// Swapping a cached model in over one without a cache.
	s2 := NewService(testUCAD(t), Config{Workers: 1, Shards: 1, SweepEvery: -1})
	defer s2.Stop()
	uC := testUCAD(t)
	cc := scorecache.New(64)
	uC.Model.SetScoreCache(cc)
	ccGen := cc.Gen()
	if err := s2.SwapModel(uC); err != nil {
		t.Fatal(err)
	}
	if cc.Gen() == ccGen || s2.model.Load().cache != cc {
		t.Fatal("the incoming model's own cache was not kept and bumped")
	}
}

// TestCachedScoringSwapRetrainRace hammers cached scoring from 16
// goroutines while the service alternates upload swaps between two
// models with fine-tune rounds, each installing a copy. Every row a
// goroutine scores must equal the uncached reference of the model that
// scored it — the serving one, or a straggler still holding one just
// replaced — and every rank of the serving ranker stays in range. Run
// under -race.
func TestCachedScoringSwapRetrainRace(t *testing.T) {
	uA := testUCAD(t)
	tuned, _ := uA.FineTune(verifiedSessions(8), 3, nil)
	uB := reloaded(t, tuned)
	c := scorecache.New(1024)
	uA.Model.SetScoreCache(c)
	s := NewService(uA, Config{Workers: 2, Shards: 2, SweepEvery: -1, RetrainEpochs: 1})
	defer s.Stop()
	ctxs := toyContexts(uA)
	targets := make([]int, len(ctxs))
	for i := range targets {
		targets[i] = uA.Vocab.Key(normalStatement(i))
	}
	vocab := uA.Vocab.Size()

	var refMu sync.Mutex
	refs := map[*transdas.Model][][]float64{}
	ref := func(m *transdas.Model) [][]float64 {
		refMu.Lock()
		defer refMu.Unlock()
		if r, ok := refs[m]; ok {
			return r
		}
		r := uncachedRows(t, m, ctxs)
		refs[m] = r
		return r
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ranks []int
			var m *transdas.Model
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					ranks = servingRanker{s}.RankBatch(ranks[:0], ctxs, targets)
					for _, r := range ranks {
						if r < 1 || r > vocab {
							errs <- fmt.Sprintf("rank %d outside [1, %d]", r, vocab)
							return
						}
					}
				}
				// Hold a model for a few passes, so some passes score one
				// that no longer serves.
				if i%3 == 0 {
					m = s.model.Load().ucad.Model
				}
				k := i % len(ctxs)
				row := m.NewScorer().ScoreBatchInto(nil, ctxs[k:k+1])[0]
				if !sameRow(row, ref(m)[k]) {
					errs <- "a scored row differs from its model's uncached reference"
					return
				}
			}
		}(w)
	}
	for i := 0; i < 12; i++ {
		next := uA
		if i%2 == 0 {
			next = uB
		}
		if err := s.SwapModel(next); err != nil {
			t.Fatal(err)
		}
		for _, sess := range verifiedSessions(2) {
			s.addVerified(sess)
		}
		from := s.model.Load()
		if n, _ := s.retrain(); n != 2 || s.model.Load() == from {
			t.Fatal("the fine-tune round installed no copy")
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	final := s.model.Load().ucad.Model
	want := ref(final)
	for i, row := range final.NewScorer().ScoreBatchInto(nil, ctxs) {
		if !sameRow(row, want[i]) {
			t.Fatalf("ctx %d: the serving model's cached row differs from its uncached reference", i)
		}
	}
	if st := c.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("the race exercised no cache traffic: %+v", st)
	}
	if st := s.Stats(); st.ModelSwaps != 12 {
		t.Fatalf("model swaps %d, want the 12 uploads only", st.ModelSwaps)
	}
}

// TestConcurrentCloseOutVerdicts runs close-out sweeps from four
// goroutines at once: each closed session gets exactly one verdict,
// and the verdicts are the sequential ones (the toy model flags only
// the out-of-vocabulary statement). Run under -race.
func TestConcurrentCloseOutVerdicts(t *testing.T) {
	clk := newFakeClock()
	s := NewService(testUCAD(t), Config{Workers: 2, Shards: 4, SweepEvery: -1, IdleTimeout: time.Minute, Clock: clk.Now})
	defer s.Stop()
	const clients = 16
	for c := 0; c < clients; c++ {
		for p := 0; p < 6; p++ {
			sql := normalStatement(p)
			if c%2 == 1 && p == 4 {
				sql = anomalySQL
			}
			if err := s.Ingest(Event{ClientID: fmt.Sprintf("c%d", c), User: "app", SQL: sql}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Drain()
	clk.Advance(2 * time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.CloseIdleNow()
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.SessionsProcessed != clients || st.SessionsFlagged != clients/2 || st.VerifiedPool != clients/2 {
		t.Fatalf("stats %+v, want %d processed, %d flagged, pool %d", st, clients, clients/2, clients/2)
	}
	for _, a := range s.Alerts("") {
		if !a.Final || len(a.Positions) != 1 || a.Positions[0] != 4 {
			t.Fatalf("alert %+v, want a final verdict at position 4", a)
		}
	}
}
