package serve

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/wal"
)

// shipSealed copies every sealed stream file from src to dst — the
// in-process stand-in for the HTTP shipper (same ship-sealed-only
// listing).
func shipSealed(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := wal.SealedStreamFiles(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// standbyService builds a warm standby over its synced WAL directory: a
// durable service that never calls Restore.
func standbyService(t *testing.T, dir string, clock func() time.Time, mutate func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		Shards:     2,
		Workers:    2,
		SweepEvery: -1,
		Clock:      clock,
		Durability: &DurabilityConfig{Dir: dir, Fsync: wal.SyncAlways},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewService(testUCAD(t), cfg)
}

// replayShipped replays a shipped directory into a replica service,
// stream by stream (the in-process stand-in for the follower).
func replayShipped(t *testing.T, r *Service, dir string, shards int) {
	t.Helper()
	for i := 0; i < shards; i++ {
		_, err := wal.RestoreStream(dir, wal.ShardSegmentPrefix(i), wal.ShardSnapshotPrefix(i),
			r.ReplicaRestoreSnapshot, r.ReplicaApplyRecord)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaPromoteServesRestoredState: a warm standby fed the
// primary's shipped snapshot+segments holds the same sessions, rejects
// traffic until promotion, serves it afterwards, and its post-promotion
// WAL survives a restart.
func TestReplicaPromoteServesRestoredState(t *testing.T) {
	u := testUCAD(t)
	clock := newFakeClock()
	dirA, dirB := t.TempDir(), t.TempDir()

	s1, _ := durableService(t, u, dirA, clock.Now, func(c *Config) { c.Shards = 2 })
	for i, client := range []string{"c1", "c2", "c3", "c4"} {
		ingestN(t, s1, client, 4+i, 0)
	}
	s1.Drain()
	_, want := exportedState(s1)
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	shipSealed(t, dirA, dirB)

	r := standbyService(t, dirB, clock.Now, nil)
	if !r.IsReplica() {
		t.Fatal("not a replica")
	}
	if err := r.Ingest(Event{ClientID: "x", SQL: "SELECT 1"}); err != ErrNotReady {
		t.Fatalf("replica ingest: %v, want ErrNotReady", err)
	}
	replayShipped(t, r, dirB, 2)

	gotSeq, got := exportedState(r)
	if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
		t.Fatalf("replica state diverges from primary:\n got %+v\nwant %+v", got, want)
	}
	wantSeq, _ := exportedState(s1)
	if gotSeq < wantSeq {
		t.Fatalf("replica session-id floor %d below primary %d", gotSeq, wantSeq)
	}

	if err := r.PromoteToServing(); err != nil {
		t.Fatal(err)
	}
	r.Start()
	if r.IsReplica() {
		t.Fatal("still a replica after promotion")
	}
	if err := r.PromoteToServing(); err != ErrNotReplica {
		t.Fatalf("second promotion: %v, want ErrNotReplica", err)
	}
	if got := r.Stats().Promotions; got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	// The promoted standby serves durably: new events append to its own
	// WAL streams in dirB.
	ingestN(t, r, "c1", 3, 4)
	ingestN(t, r, "c5", 2, 0)
	r.Drain()
	_, want2 := exportedState(r)
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, rst := durableService(t, testUCAD(t), dirB, clock.Now, func(c *Config) { c.Shards = 2 })
	defer s2.Close(context.Background())
	if !rst.CleanSeal {
		t.Fatal("promoted standby's Close did not seal its streams")
	}
	_, got2 := exportedState(s2)
	if !reflect.DeepEqual(stripTimes(got2), stripTimes(want2)) {
		t.Fatalf("restart of promoted standby diverges:\n got %+v\nwant %+v", got2, want2)
	}
}

// TestReplicaResetRebuildConverges: dropping the replica's state and
// re-replaying the shipped files lands on the same sessions — the gap
// catch-up path is just a restart recovery.
func TestReplicaResetRebuildConverges(t *testing.T) {
	u := testUCAD(t)
	clock := newFakeClock()
	dirA, dirB := t.TempDir(), t.TempDir()

	s1, _ := durableService(t, u, dirA, clock.Now, func(c *Config) { c.Shards = 2 })
	for i, client := range []string{"c1", "c2", "c3"} {
		ingestN(t, s1, client, 5+i, 0)
	}
	s1.Drain()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	shipSealed(t, dirA, dirB)

	r := standbyService(t, dirB, clock.Now, nil)
	defer r.Close(context.Background())
	replayShipped(t, r, dirB, 2)
	_, first := exportedState(r)
	if len(first) != 3 {
		t.Fatalf("replayed %d sessions, want 3", len(first))
	}
	if err := r.ReplicaReset(); err != nil {
		t.Fatal(err)
	}
	if n := len(r.ExportSessions()); n != 0 {
		t.Fatalf("%d sessions open after reset", n)
	}
	replayShipped(t, r, dirB, 2)
	_, second := exportedState(r)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("rebuild diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestStandbyCloseRunsNoDetection: shutting a standby down must not
// judge the primary's sessions. With auto-retraining armed
// (RetrainAfter 1) Close processes nothing, starts no fine-tune round,
// and leaves the synced directory able to rebuild the same sessions.
func TestStandbyCloseRunsNoDetection(t *testing.T) {
	clock := newFakeClock()
	dirA, dirB := t.TempDir(), t.TempDir()

	s1, _ := durableService(t, testUCAD(t), dirA, clock.Now, func(c *Config) { c.Shards = 2 })
	for i, client := range []string{"c1", "c2", "c3"} {
		ingestN(t, s1, client, 5+i, 0)
	}
	s1.Drain()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	shipSealed(t, dirA, dirB)

	armed := func(c *Config) { c.RetrainAfter = 1 }
	r := standbyService(t, dirB, clock.Now, armed)
	replayShipped(t, r, dirB, 2)
	_, want := exportedState(r)
	if len(want) != 3 {
		t.Fatalf("standby replayed %d sessions, want 3", len(want))
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SessionsProcessed != 0 || st.Retrains != 0 || st.AlertsRaised != 0 {
		t.Fatalf("closing a standby ran detection on the primary's sessions: %+v", st)
	}
	if err := r.ReplicaReset(); err != ErrStopped {
		t.Fatalf("replay into a closed standby: %v, want ErrStopped", err)
	}

	r2 := standbyService(t, dirB, clock.Now, armed)
	defer r2.Close(context.Background())
	replayShipped(t, r2, dirB, 2)
	if _, got := exportedState(r2); !reflect.DeepEqual(got, want) {
		t.Fatalf("a fresh standby over the same directory diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplicaGuards: the replica entry points refuse a non-replica —
// a service with no durability, and a durable one that is live.
func TestReplicaGuards(t *testing.T) {
	plain := NewService(testUCAD(t), Config{Workers: 1, SweepEvery: -1})
	defer plain.Stop()
	live, _ := durableService(t, testUCAD(t), t.TempDir(), nil, nil)
	defer live.Close(context.Background())
	for name, s := range map[string]*Service{"non-durable": plain, "live durable": live} {
		if s.IsReplica() {
			t.Fatalf("%s: IsReplica", name)
		}
		if err := s.ReplicaReset(); err != ErrNotReplica {
			t.Fatalf("%s: ReplicaReset: %v", name, err)
		}
		if err := s.ReplicaApplyRecord([]byte(`{"t":"ev"}`)); err != ErrNotReplica {
			t.Fatalf("%s: ReplicaApplyRecord: %v", name, err)
		}
		if err := s.ReplicaRestoreSnapshot([]byte(`{}`)); err != ErrNotReplica {
			t.Fatalf("%s: ReplicaRestoreSnapshot: %v", name, err)
		}
		if err := s.PromoteToServing(); err != ErrNotReplica {
			t.Fatalf("%s: PromoteToServing: %v", name, err)
		}
	}
}

// TestWarmScoreCacheFromRestore: WarmScoreCache after a restore
// pre-populates the score cache from the restored sessions and exports
// the count, and the context the next event of each restored session is
// ranked against is among the rows it warmed.
func TestWarmScoreCacheFromRestore(t *testing.T) {
	u := testUCAD(t)
	u.Model.SetScoreCache(scorecache.New(1024))
	dir := t.TempDir()
	clock := newFakeClock()

	s1, _ := durableService(t, u, dir, clock.Now, nil)
	for i, client := range []string{"c1", "c2"} {
		ingestN(t, s1, client, 6+i, 0)
	}
	s1.Drain()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	u2 := testUCAD(t)
	u2.Model.SetScoreCache(scorecache.New(1024))
	s2, _ := durableService(t, u2, dir, clock.Now, nil)
	defer s2.Close(context.Background())
	warmed := s2.WarmScoreCache()
	if warmed == 0 {
		t.Fatal("restore warmed nothing")
	}
	if got := s2.Stats().ScoreCacheWarmed; got != int64(warmed) {
		t.Fatalf("stats warmed %d, WarmScoreCache reported %d", got, warmed)
	}
	// Warming again is self-limiting: every context is already cached.
	if again := s2.WarmScoreCache(); again != 0 {
		t.Fatalf("second warm recomputed %d rows", again)
	}
	// Live traffic's first scoring pass hits: one more event into each
	// restored session is ranked on a context the warm already cached.
	misses := s2.Stats().ScoreCacheMisses
	for i, client := range []string{"c1", "c2"} {
		ingestN(t, s2, client, 1, 6+i)
	}
	s2.Drain()
	if st := s2.Stats(); st.OpsScored == 0 || st.ScoreCacheMisses != misses {
		t.Fatalf("next event after the warm: %d ops scored, misses %d -> %d", st.OpsScored, misses, st.ScoreCacheMisses)
	}
	// The counter reaches the exposition.
	rec := httptestBody(t, s2)
	if !strings.Contains(rec, "ucad_score_cache_warmed_total") {
		t.Fatal("ucad_score_cache_warmed_total missing from /metrics")
	}
}

// httptestBody scrapes the service's metrics exposition.
func httptestBody(t *testing.T, s *Service) string {
	t.Helper()
	w := httptest.NewRecorder()
	s.metrics.Registry.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	res := w.Result()
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
