package serve

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ucad/ucad/internal/scorecache"
)

// TestCachedServingVerdictsMatchUncached runs the same event stream
// through a cache-enabled service and an uncached control: identical
// clients replaying identical statement sequences produce repeated
// contexts (cache hits), and every verdict counter must still agree.
func TestCachedServingVerdictsMatchUncached(t *testing.T) {
	uc := testUCAD(t)
	cached := testUCAD(t)
	cached.Model.SetScoreCache(scorecache.New(512))

	ctl := NewService(uc, Config{Workers: 2, SweepEvery: -1})
	svc := NewService(cached, Config{Workers: 2, SweepEvery: -1})
	defer ctl.Close(context.Background())
	defer svc.Close(context.Background())

	feed := func(s *Service) {
		// Two clients replay the same sequence: the second client's
		// contexts are exact repeats of the first's, so the cached service
		// serves them from memory. The drain between clients keeps the
		// engine from fusing both replays into one micro-batch (duplicates
		// inside a single batch are all scored before any row is
		// inserted, which would leave nothing to hit).
		for _, client := range []string{"c1", "c2"} {
			ingestN(t, s, client, 6, 0)
			if err := s.Ingest(Event{ClientID: client, User: "app", SQL: anomalySQL}); err != nil {
				t.Fatal(err)
			}
			ingestN(t, s, client, 2, 6)
			s.Drain()
		}
	}
	feed(ctl)
	feed(svc)

	cs, ctls := svc.Stats(), ctl.Stats()
	if cs.MidSessionFlags != ctls.MidSessionFlags ||
		cs.AlertsRaised != ctls.AlertsRaised ||
		cs.OpsScored != ctls.OpsScored {
		t.Fatalf("cached verdicts diverge from control:\ncached  %+v\ncontrol %+v", cs, ctls)
	}
	if cs.MidSessionFlags == 0 {
		t.Fatal("anomaly was never flagged; equivalence check is vacuous")
	}
	if cs.ScoreCacheHits == 0 || cs.ScoreCacheMisses == 0 {
		t.Fatalf("cached service saw no cache traffic: %+v", cs)
	}
	if ctls.ScoreCacheHits != 0 || ctls.ScoreCacheEntries != 0 {
		t.Fatalf("uncached control reports cache traffic: %+v", ctls)
	}
	if cs.ScoreCacheHitRate <= 0 || cs.ScoreCacheHitRate >= 1 {
		t.Fatalf("hit rate %v, want in (0, 1)", cs.ScoreCacheHitRate)
	}

	// The cache must survive the /metrics path too, with the same
	// numbers /stats reports.
	srv := httptest.NewServer(svc.metrics.Registry.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"ucad_score_cache_hits_total",
		"ucad_score_cache_misses_total",
		"ucad_score_cache_evictions_total",
		"ucad_score_cache_entries",
	} {
		if !strings.Contains(string(body), family+`{tenant="default"}`) {
			t.Fatalf("/metrics missing %s:\n%s", family, body)
		}
	}
}

// TestRestoreStartsWithColdCache pins the durability contract for the
// cache: it is volatile serving state, not persisted with the model or
// WAL. A restart restores sessions but comes up with an empty cache,
// and post-restart verdicts match an uncached, uninterrupted control.
func TestRestoreStartsWithColdCache(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()

	u1 := testUCAD(t)
	u1.Model.SetScoreCache(scorecache.New(512))
	s1, _ := durableService(t, u1, dir, clock.Now, nil)
	for _, client := range []string{"c1", "c2"} {
		ingestN(t, s1, client, 5, 0)
	}
	s1.Drain()
	if st := s1.Stats(); st.ScoreCacheMisses == 0 {
		t.Fatalf("warm service saw no cache traffic: %+v", st)
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Uninterrupted uncached control over the full stream.
	ctl := NewService(testUCAD(t), Config{Workers: 2, SweepEvery: -1, Clock: clock.Now})
	defer ctl.Close(context.Background())
	for _, client := range []string{"c1", "c2"} {
		ingestN(t, ctl, client, 5, 0)
	}

	// Restart: same model weights, fresh (cold) cache — the process
	// restarted, so the old cache is gone.
	u2 := testUCAD(t)
	u2.Model.SetScoreCache(scorecache.New(512))
	s2, rst := durableService(t, u2, dir, clock.Now, nil)
	defer s2.Close(context.Background())
	if rst.Sessions != 2 {
		t.Fatalf("restored %d sessions, want 2", rst.Sessions)
	}
	if st := s2.Stats(); st.ScoreCacheHits != 0 || st.ScoreCacheMisses != 0 || st.ScoreCacheEntries != 0 {
		t.Fatalf("cache not cold after restart: %+v", st)
	}

	// Post-restart traffic: continuation plus an anomaly per client; the
	// cold-cache service and the uncached control must agree on every
	// verdict.
	finish := func(s *Service) {
		for _, client := range []string{"c1", "c2"} {
			ingestN(t, s, client, 3, 5)
			if err := s.Ingest(Event{ClientID: client, User: "app", SQL: anomalySQL}); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
	}
	finish(s2)
	finish(ctl)
	got, want := s2.Stats(), ctl.Stats()
	if got.MidSessionFlags != want.MidSessionFlags || got.AlertsRaised != want.AlertsRaised {
		t.Fatalf("post-restart verdicts diverge from uncached control:\n got %+v\nwant %+v", got, want)
	}
	if got.MidSessionFlags == 0 {
		t.Fatal("anomaly was never flagged; equivalence check is vacuous")
	}
}
