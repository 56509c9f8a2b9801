package serve

import (
	"context"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/wal"
)

// durableService builds a Service with durability on dir and restores
// it. SweepEvery/SnapshotEvery are off so tests drive close-out and
// snapshots deterministically.
func durableService(t *testing.T, u *core.UCAD, dir string, clock func() time.Time, mutate func(*Config)) (*Service, RestoreStats) {
	t.Helper()
	cfg := Config{
		Workers:    2,
		SweepEvery: -1,
		Clock:      clock,
		Durability: &DurabilityConfig{
			Dir:   dir,
			Fsync: wal.SyncAlways,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := NewService(u, cfg)
	st, err := s.Restore()
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return s, st
}

// exportedState strips the volatile LastSeen so restored state can be
// compared against an uninterrupted control run.
func exportedState(s *Service) (int, []SessionState) {
	seq, st := s.exportAll()
	for i := range st {
		st[i].LastSeen = time.Time{}
	}
	return seq, st
}

func ingestN(t *testing.T, s *Service, client string, n, from int) {
	t.Helper()
	for p := from; p < from+n; p++ {
		err := s.Ingest(Event{ClientID: client, User: "app", SQL: normalStatement(p)})
		if err != nil {
			t.Fatalf("ingest %s #%d: %v", client, p, err)
		}
	}
}

// TestDurableRestartGraceful: Close preserves open sessions; a fresh
// Service on the same dir restores them byte-exactly (positions + key
// windows) and subsequent scoring matches an uninterrupted run.
func TestDurableRestartGraceful(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()

	s1, rst := durableService(t, u, dir, clock.Now, nil)
	if rst.Sessions != 0 || rst.Records != 0 {
		t.Fatalf("fresh dir restored %+v", rst)
	}
	for i, client := range []string{"c1", "c2", "c3"} {
		ingestN(t, s1, client, 4+i, 0)
	}
	s1.Drain()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ingest(Event{ClientID: "c1", SQL: "SELECT 1"}); err != ErrStopped {
		t.Fatalf("ingest after Close: %v, want ErrStopped", err)
	}

	// Control: the same stream into a non-durable service, never
	// interrupted.
	ctl := NewService(testUCAD(t), Config{Workers: 2, SweepEvery: -1, Clock: clock.Now})
	for i, client := range []string{"c1", "c2", "c3"} {
		ingestN(t, ctl, client, 4+i, 0)
	}
	ctl.Drain()

	s2, rst := durableService(t, u, dir, clock.Now, nil)
	defer s2.Close(context.Background())
	if !rst.CleanSeal {
		t.Fatal("graceful Close did not seal the log")
	}
	if rst.Sessions != 3 {
		t.Fatalf("restored %d sessions, want 3", rst.Sessions)
	}
	if got := s2.Stats().RecoveredSessions; got != 3 {
		t.Fatalf("stats recovered_sessions = %d, want 3", got)
	}

	wantSeq, want := exportedState(ctl)
	gotSeq, got := exportedState(s2)
	if gotSeq < wantSeq {
		t.Fatalf("session-id counter regressed: %d < %d", gotSeq, wantSeq)
	}
	if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
		t.Fatalf("restored state diverges from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}

	// Subsequent scoring must match: the anomaly statement flags in
	// both worlds, normal continuation flags in neither.
	ingestN(t, s2, "c1", 3, 4)
	ingestN(t, ctl, "c1", 3, 4)
	s2.Drain()
	ctl.Drain()
	if a, b := s2.midFlags.Load(), ctl.midFlags.Load(); a != b {
		t.Fatalf("normal continuation: restored flagged %d, control %d", a, b)
	}
	if err := s2.Ingest(Event{ClientID: "c1", User: "app", SQL: anomalySQL}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Ingest(Event{ClientID: "c1", User: "app", SQL: anomalySQL}); err != nil {
		t.Fatal(err)
	}
	s2.Drain()
	ctl.Drain()
	if a, b := s2.midFlags.Load(), ctl.midFlags.Load(); a != b || a == 0 {
		t.Fatalf("anomaly flags diverge after restart: restored %d, control %d", a, b)
	}
	ctl.Stop()
}

// stripTimes zeroes per-op timestamps (the control run and the durable
// run share the fake clock, but drop them anyway so the comparison pins
// ordering and content, not clock plumbing).
func stripTimes(st []SessionState) []SessionState {
	out := append([]SessionState(nil), st...)
	for i := range out {
		ops := append([]session.Operation(nil), out[i].Ops...)
		for j := range ops {
			ops[j].Time = time.Time{}
		}
		out[i].Ops = ops
	}
	return out
}

// TestDurableRestartHardKill: abandoning the service without Close
// (the in-process stand-in for kill -9; fsync=always made every ack
// durable) must restore every acknowledged event.
func TestDurableRestartHardKill(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()

	s1, _ := durableService(t, u, dir, clock.Now, nil)
	ingestN(t, s1, "c1", 5, 0)
	ingestN(t, s1, "c2", 3, 0)
	s1.Drain()
	_, want := exportedState(s1)
	// No Close, no Stop: the WAL file handle just drops. The log was
	// fsynced per append, so a fresh open sees every record.

	s2, rst := durableService(t, u, dir, clock.Now, nil)
	defer s2.Close(context.Background())
	if rst.CleanSeal {
		t.Fatal("hard kill reported a clean seal")
	}
	if rst.Sessions != 2 {
		t.Fatalf("restored %d sessions, want 2", rst.Sessions)
	}
	_, got := exportedState(s2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hard-kill restore diverges:\n got %+v\nwant %+v", got, want)
	}
	// The restored sessions keep scoring: an anomaly on the recovered
	// context must flag.
	if err := s2.Ingest(Event{ClientID: "c1", User: "app", SQL: anomalySQL}); err != nil {
		t.Fatal(err)
	}
	s2.Drain()
	if s2.midFlags.Load() == 0 {
		t.Fatal("restored session did not flag the anomaly")
	}
}

// TestDurableSnapshotCompactionRestart: snapshots + post-snapshot WAL
// suffix recover the same state, and close records replay so finalized
// sessions are not resurrected.
func TestDurableSnapshotCompactionRestart(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()

	s1, _ := durableService(t, u, dir, clock.Now, func(c *Config) {
		c.IdleTimeout = time.Minute
	})
	ingestN(t, s1, "c1", 4, 0)
	ingestN(t, s1, "c2", 4, 0)
	if err := s1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, s1, "c1", 2, 4) // post-snapshot suffix
	// c2 idles out: its close-out is logged after the snapshot that
	// still contains it.
	clock.Advance(2 * time.Minute)
	ingestN(t, s1, "c1", 1, 6) // keeps c1 fresh
	if n := s1.CloseIdleNow(); n != 1 {
		t.Fatalf("closed %d sessions, want 1 (c2)", n)
	}
	s1.Drain()
	_, want := exportedState(s1)

	s2, rst := durableService(t, u, dir, clock.Now, nil)
	defer s2.Close(context.Background())
	if rst.SnapshotSeq == 0 {
		t.Fatal("restart did not anchor to the snapshot")
	}
	if rst.Sessions != 1 {
		t.Fatalf("restored %d sessions, want 1 (c2 was finalized pre-restart)", rst.Sessions)
	}
	_, got := exportedState(s2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot+suffix restore diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestDurableReplayIdempotence: replaying a WAL suffix that overlaps
// the snapshot state (the crash-between-capture-and-prune shape) must
// not duplicate operations.
func TestDurableReplayIdempotence(t *testing.T) {
	a := NewAssembler(time.Minute, nil)
	op := func(p int) session.Operation {
		return session.Operation{User: "app", SQL: normalStatement(p)}
	}
	if !a.ReplayAppend("c1", "c1#1", 0, op(0), 3, 0, 0) {
		t.Fatal("creation replay rejected")
	}
	if !a.ReplayAppend("c1", "c1#1", 1, op(1), 4, 0, 0) {
		t.Fatal("append replay rejected")
	}
	// Duplicates (already-applied positions) and gaps are dropped.
	if a.ReplayAppend("c1", "c1#1", 0, op(0), 3, 0, 0) {
		t.Fatal("duplicate replay applied twice")
	}
	if a.ReplayAppend("c1", "c1#1", 5, op(5), 4, 0, 0) {
		t.Fatal("gap replay applied")
	}
	// Mismatched session id (stale record) is dropped.
	if a.ReplayAppend("c1", "c1#0", 2, op(2), 4, 0, 0) {
		t.Fatal("stale-session replay applied")
	}
	if a.OpenCount() != 1 {
		t.Fatalf("open count %d, want 1", a.OpenCount())
	}
	_, st := a.Export()
	if len(st[0].Ops) != 2 {
		t.Fatalf("session has %d ops, want 2", len(st[0].Ops))
	}
	// Rollback replay undoes only the matching tail.
	if a.ReplayRollback("c1", "c1#1", 0) {
		t.Fatal("non-tail rollback applied")
	}
	if !a.ReplayRollback("c1", "c1#1", 1) {
		t.Fatal("tail rollback rejected")
	}
	// Close replay removes the session; a second close is a no-op.
	if !a.ReplayClose("c1", "c1#1") {
		t.Fatal("close replay rejected")
	}
	if a.ReplayClose("c1", "c1#1") {
		t.Fatal("double close applied")
	}
	if a.OpenCount() != 0 {
		t.Fatalf("open count %d after close, want 0", a.OpenCount())
	}
	// The restored id counter floor prevents reuse of pre-crash ids.
	a.SetSeqFloor(7)
	ap := a.Append(Event{ClientID: "c9", SQL: "SELECT 1"}, 1, 0)
	if ap.SessionID != "c9#8" {
		t.Fatalf("post-restore session id %q, want c9#8", ap.SessionID)
	}
}

// TestDurableNotReadyAndMetrics: a durability-configured service
// rejects events before Restore, and the metrics registry exports the
// WAL families after it (tenant.TestEnvelopeNotReady scrapes the same
// over HTTP).
func TestDurableNotReadyAndMetrics(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	s := NewService(u, Config{SweepEvery: -1, Durability: &DurabilityConfig{Dir: dir, Fsync: wal.SyncAlways}})
	if err := s.Ingest(Event{ClientID: "c1", SQL: "SELECT 1"}); err != ErrNotReady {
		t.Fatalf("pre-Restore ingest: %v, want ErrNotReady", err)
	}
	if _, err := s.Restore(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(); err == nil {
		t.Fatal("second Restore accepted")
	}
	ingestN(t, s, "c1", 3, 0)
	s.Drain()

	body := httptestBody(t, s)
	for _, family := range []string{
		`ucad_wal_appends_total{tenant="default"} 3`,
		`ucad_wal_fsync_seconds_count{tenant="default"}`,
		"ucad_wal_segment_bytes",
		`ucad_wal_recovered_sessions{tenant="default"} 0`,
		"ucad_snapshot_seconds",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics missing %q", family)
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointHotSwap: a fine-tune round writes a checkpoint
// that loads back; a checkpoint that fails validation is rolled back to
// the last good one.
func TestDurableCheckpointHotSwap(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	ck, err := wal.OpenCheckpoints(dir+"/checkpoints", 0)
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	s, _ := durableService(t, u, dir+"/wal", clock.Now, func(c *Config) {
		c.RetrainAfter = 1
		c.RetrainEpochs = 1
		c.IdleTimeout = time.Minute
		c.Durability.Checkpoints = ck
	})
	ingestN(t, s, "c1", 8, 0)
	s.Drain()
	clock.Advance(2 * time.Minute)
	if n := s.CloseIdleNow(); n != 1 {
		t.Fatalf("closed %d sessions, want 1", n)
	}
	// CloseIdleNow kicked the retrain goroutine; wait for it.
	s.retrainWG.Wait()
	if s.retrains.Load() != 1 {
		t.Fatalf("retrains = %d, want 1", s.retrains.Load())
	}
	good := ck.Current()
	if good == "" {
		t.Fatal("fine-tune round left no checkpoint")
	}
	if err := verifyCheckpoint(good); err != nil {
		t.Fatalf("checkpoint does not load back: %v", err)
	}

	// A garbage checkpoint must be rolled back to the good one.
	if _, err := ck.Save(func(w io.Writer) error {
		_, err := io.WriteString(w, "not a model")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	bad := ck.Current()
	if err := verifyCheckpoint(bad); err == nil {
		t.Fatal("garbage checkpoint loaded")
	} else if _, rerr := ck.Rollback(); rerr != nil {
		t.Fatal(rerr)
	}
	if ck.Current() != good {
		t.Fatalf("rollback landed on %q, want %q", ck.Current(), good)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("bad checkpoint file survived rollback")
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDurableStopFlushesAndSeals: Stop (the flush-everything shutdown)
// logs the close-outs, so a restart restores an empty assembler.
func TestDurableStopFlushesAndSeals(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()
	s1, _ := durableService(t, u, dir, clock.Now, nil)
	ingestN(t, s1, "c1", 4, 0)
	s1.Drain()
	s1.Stop()

	s2, rst := durableService(t, u, dir, clock.Now, nil)
	defer s2.Close(context.Background())
	if !rst.CleanSeal {
		t.Fatal("Stop did not seal the log")
	}
	if rst.Sessions != 0 {
		t.Fatalf("restored %d sessions after flush-all Stop, want 0", rst.Sessions)
	}
}
