package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
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

// twoShardClients returns one client id hashing to each shard of a
// two-shard service.
func twoShardClients() [2]string {
	var out [2]string
	for i := 0; out[0] == "" || out[1] == ""; i++ {
		c := fmt.Sprintf("c%d", i)
		out[shardIndex(c, 2)] = c
	}
	return out
}

// TestDurableBatchCommitsPerStream: a request is the commit group. A
// 32-event batch spanning both shards is acknowledged after exactly one
// fsync per touched stream, and a hard kill right after IngestBatch
// returns restores all 32 events at their positions.
func TestDurableBatchCommitsPerStream(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()
	s1, _ := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = 2 })
	clients := twoShardClients()

	evs := make([]Event, 32)
	for i := range evs {
		evs[i] = Event{ClientID: clients[i%2], User: "app", SQL: normalStatement(i / 2)}
	}
	errs := make([]error, len(evs))
	before := s1.metrics.walFsyncSeconds.Count()
	s1.IngestBatch(evs, errs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if got := s1.metrics.walFsyncSeconds.Count() - before; got != 2 {
		t.Fatalf("32-event batch over 2 streams took %d fsyncs, want 2", got)
	}
	// A batch on one shard touches one stream.
	before = s1.metrics.walFsyncSeconds.Count()
	s1.IngestBatch(evs[:1], errs[:1])
	if got := s1.metrics.walFsyncSeconds.Count() - before; got != 1 || errs[0] != nil {
		t.Fatalf("one-stream batch: %d fsyncs (want 1), err %v", got, errs[0])
	}
	if got := s1.Stats().EventsAccepted; got != 33 {
		t.Fatalf("events_accepted = %d, want 33", got)
	}
	s1.Drain()
	_, want := exportedState(s1)
	// Hard kill: no Close, no Stop.

	s2, rst := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = 2 })
	defer s2.Close(context.Background())
	if rst.CleanSeal || rst.Records != 33 {
		t.Fatalf("restore after hard kill: %+v, want 33 records and no seal", rst)
	}
	_, got := exportedState(s2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hard-kill restore of a batch diverges:\n got %+v\nwant %+v", got, want)
	}
	if n := len(got[0].Ops) + len(got[1].Ops); n != 33 {
		t.Fatalf("restored %d operations, want 33", n)
	}
}

// TestDurableBatchCommitFailure: a stream whose commit fails rejects
// exactly its own events of the request — rolled back out of their
// sessions, counted rejected — while the other stream's events are
// accepted. The seam: the assembler clock closes shard 0's store once
// the batch has written all of that shard's records, so the writes
// succeed and only the commit fails.
func TestDurableBatchCommitFailure(t *testing.T) {
	u := testUCAD(t)
	clock := newFakeClock()
	clients := twoShardClients()
	var s *Service
	var armed atomic.Bool
	s, _ = durableService(t, u, t.TempDir(), func() time.Time {
		if armed.Load() && len(sessionOps(s, clients[0])) == 5 && armed.CompareAndSwap(true, false) {
			s.shards[0].store.Close()
		}
		return clock.Now()
	}, func(c *Config) { c.Shards = 2 })
	defer s.Stop()

	ingestN(t, s, clients[0], 2, 0)
	ingestN(t, s, clients[1], 2, 0)
	var evs []Event
	for _, c := range clients {
		for p := 2; p < 5; p++ {
			evs = append(evs, Event{ClientID: c, User: "app", SQL: normalStatement(p)})
		}
	}
	errs := make([]error, len(evs))
	armed.Store(true)
	s.IngestBatch(evs, errs)

	for i, err := range errs {
		if i < 3 && (!errors.Is(err, wal.ErrClosed) || !strings.Contains(err.Error(), "wal commit")) {
			t.Fatalf("event %d on the failed stream: %v, want a commit failure wrapping wal.ErrClosed", i, err)
		}
		if i >= 3 && err != nil {
			t.Fatalf("event %d on the healthy stream: %v", i, err)
		}
	}
	if n := len(sessionOps(s, clients[0])); n != 2 {
		t.Fatalf("failed stream's session holds %d ops, want the 2 from before the request", n)
	}
	if n := len(sessionOps(s, clients[1])); n != 5 {
		t.Fatalf("healthy stream's session holds %d ops, want 5", n)
	}
	if st := s.Stats(); st.EventsAccepted != 4+3 || st.EventsRejected != 3 {
		t.Fatalf("accepted %d rejected %d, want 7 and 3", st.EventsAccepted, st.EventsRejected)
	}
}

// TestIdleSweepCommitsOncePerShard: a sweep that closes N sessions of a
// shard logs N close records under one fsync — it holds that shard's
// durMu for one commit, not N — and the records still keep recovery
// from resurrecting the finalized sessions.
func TestIdleSweepCommitsOncePerShard(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := func(c *Config) { c.Shards, c.IdleTimeout = 1, time.Minute }
	s1, _ := durableService(t, u, dir, clock.Now, cfg)
	for i := 0; i < 5; i++ {
		ingestN(t, s1, fmt.Sprintf("c%d", i), 3, 0)
	}
	s1.Drain()
	clock.Advance(2 * time.Minute)
	before := s1.metrics.walFsyncSeconds.Count()
	if n := s1.CloseIdleNow(); n != 5 {
		t.Fatalf("closed %d sessions, want 5", n)
	}
	if got := s1.metrics.walFsyncSeconds.Count() - before; got != 1 {
		t.Fatalf("closing 5 sessions on one shard took %d fsyncs, want 1", got)
	}
	// Hard kill; the close records were committed.
	s2, rst := durableService(t, u, dir, clock.Now, cfg)
	defer s2.Close(context.Background())
	if rst.Sessions != 0 {
		t.Fatalf("restart resurrected %d finalized sessions", rst.Sessions)
	}
}

// sessionOps returns the operations of client's open session.
func sessionOps(s *Service, client string) []session.Operation {
	_, st := s.shardFor(client).asm.Export()
	for _, ss := range st {
		if ss.Client == client {
			return ss.Ops
		}
	}
	return nil
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
	if a.ReplayRollback("c1", "c1#1", 0, 0, 0) {
		t.Fatal("non-tail rollback applied")
	}
	if !a.ReplayRollback("c1", "c1#1", 1, 0, 0) {
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
