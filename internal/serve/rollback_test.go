package serve

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/wal"
)

// The first regression cases of the fault layer (ROADMAP): a rejection
// the envelope calls "safe to resend" must leave the server in a state
// where the resend lands — every event exactly once, never acknowledged
// as a duplicate of an operation that was rolled back.

// seqEvents builds client's sequenced events seq from..to of epoch 1;
// seq n carries normalStatement(n-1), so a session's ops name their seqs.
func seqEvents(client string, from, to int) []Event {
	var evs []Event
	for n := from; n <= to; n++ {
		evs = append(evs, Event{ClientID: client, User: "app", SQL: normalStatement(n - 1), Epoch: 1, Seq: int64(n)})
	}
	return evs
}

// wantOps asserts client's open session holds exactly seqs 1..n in order.
func wantOps(t *testing.T, s *Service, client string, n int) {
	t.Helper()
	ops := sessionOps(s, client)
	if len(ops) != n {
		t.Fatalf("client %s holds %d ops, want %d", client, len(ops), n)
	}
	for i, op := range ops {
		if op.SQL != normalStatement(i) {
			t.Fatalf("client %s op %d = %q, want %q (lost, doubled or reordered)", client, i, op.SQL, normalStatement(i))
		}
	}
}

// copyTree clones a data directory — a hard kill frozen at this instant
// that can be restored while the original keeps running.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestRedeliveryAfterBusyRollback: a full scoring queue rejects the tail
// of a sequenced batch; the identical batch is redelivered. Every event
// lands exactly once, the counters say so, and a hard kill taken right
// after the rollback restores to the live assembler's state op for op —
// dedupe mark included, so the redelivery is fresh on both.
func TestRedeliveryAfterBusyRollback(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()
	one := func(c *Config) { c.Shards = 1 }
	s1, _ := durableService(t, u, dir, clock.Now, one)
	held, release := s1.ParkScoring(2)
	defer release()

	// MinContext is 2: seq 3 parks the worker, 4 and 5 take both queue
	// slots, so every later scoring submission is ErrBusy.
	errs := make([]error, 5)
	s1.IngestBatch(seqEvents("a", 1, 3), errs[:3])
	<-held
	s1.IngestBatch(seqEvents("a", 4, 5), errs[3:])
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fill event %d: %v", i, err)
		}
	}

	// The batch: a's 6 hits the full queue and is rolled back; 7 and 8
	// must not be absorbed past the gap; b's two events (below
	// MinContext, never queued) stand.
	batch := append(seqEvents("a", 6, 8), seqEvents("b", 1, 2)...)
	s1.IngestBatch(batch, errs)
	for i, err := range errs {
		if i < 3 && !errors.Is(err, ErrBusy) {
			t.Fatalf("event %d behind the full queue: %v, want ErrBusy", i, err)
		}
		if i >= 3 && err != nil {
			t.Fatalf("event %d of the other client: %v", i, err)
		}
	}
	wantOps(t, s1, "a", 5)
	wantOps(t, s1, "b", 2)
	if st := s1.Stats(); st.EventsAccepted != 7 || st.EventsRejected != 3 || st.DuplicateEvents != 0 {
		t.Fatalf("after the rejection: accepted %d rejected %d duplicates %d, want 7/3/0",
			st.EventsAccepted, st.EventsRejected, st.DuplicateEvents)
	}

	// Hard kill here: the WAL (event, then rollback record) restores to
	// the live state, and the redelivery is absorbed the same way.
	_, live := exportedState(s1)
	s2, _ := durableService(t, u, copyTree(t, dir), clock.Now, one)
	defer s2.Close(context.Background())
	if _, got := exportedState(s2); !reflect.DeepEqual(got, live) {
		t.Fatalf("restore after the rollback diverges from the live assembler:\n got %+v\nwant %+v", got, live)
	}
	s2.IngestBatch(batch, errs)
	release()
	s1.Drain()
	errs1 := make([]error, 5)
	s1.IngestBatch(batch, errs1)
	for i := range batch {
		if errs[i] != nil || errs1[i] != nil {
			t.Fatalf("redelivered event %d: restored %v, live %v", i, errs[i], errs1[i])
		}
	}
	for _, s := range []*Service{s1, s2} {
		wantOps(t, s, "a", 8)
		wantOps(t, s, "b", 2)
		if st := s.Stats(); st.DuplicateEvents != 2 {
			t.Fatalf("duplicates = %d, want 2 (b's events, absorbed the first time)", st.DuplicateEvents)
		}
	}
	if st := s1.Stats(); st.EventsAccepted != 10 {
		t.Fatalf("live events_accepted = %d, want 10 (every event exactly once)", st.EventsAccepted)
	}
	_, live = exportedState(s1)
	if _, got := exportedState(s2); !reflect.DeepEqual(got, live) {
		t.Fatalf("after the redelivery the restored copy diverges:\n got %+v\nwant %+v", got, live)
	}

	// And the whole history — events, rollback, re-appended events —
	// replays to the same sessions.
	s3, _ := durableService(t, u, dir, clock.Now, one)
	defer s3.Close(context.Background())
	if _, got := exportedState(s3); !reflect.DeepEqual(got, live) {
		t.Fatalf("hard-kill restore after the redelivery diverges:\n got %+v\nwant %+v", got, live)
	}
}

// TestRedeliveryAfterCommitFailure: the request's commit fails on one
// stream (the clock seam of TestDurableBatchCommitFailure closes its
// store), its events are rolled back, and the identical batch is
// redelivered. The rolled-back events must not be acknowledged as
// duplicates while their stream is dead — that was the acked loss — and
// after the restart that revives the stream every event is there
// exactly once. (A dead log cannot record its own rollback: the restart
// finds the three never-acknowledged events, and the redelivery is
// absorbed as their duplicate — once, either way.)
func TestRedeliveryAfterCommitFailure(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()
	clients := twoShardClients()
	two := func(c *Config) { c.Shards = 2 }
	var s *Service
	var armed atomic.Bool
	s, _ = durableService(t, u, dir, func() time.Time {
		if armed.Load() && len(sessionOps(s, clients[0])) == 5 && armed.CompareAndSwap(true, false) {
			s.shards[0].store.Close()
		}
		return clock.Now()
	}, two)

	errs := make([]error, 6)
	s.IngestBatch(append(seqEvents(clients[0], 1, 2), seqEvents(clients[1], 1, 2)...), errs[:4])
	batch := append(seqEvents(clients[0], 3, 5), seqEvents(clients[1], 3, 5)...)
	armed.Store(true)
	s.IngestBatch(batch, errs)
	for i, err := range errs {
		if i < 3 && !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("event %d on the failed stream: %v, want wal.ErrClosed", i, err)
		}
		if i >= 3 && err != nil {
			t.Fatalf("event %d on the healthy stream: %v", i, err)
		}
	}
	wantOps(t, s, clients[0], 2)
	_, st := s.shards[0].asm.Export()
	if st[0].Epoch != 1 || st[0].LastSeq != 2 {
		t.Fatalf("dedupe mark after the rollback = (%d, %d), want (1, 2): the undone events would be acked as duplicates",
			st[0].Epoch, st[0].LastSeq)
	}

	// Redelivery while the stream is still dead: refused again, retryably
	// — not acknowledged.
	s.IngestBatch(batch, errs)
	for i, err := range errs {
		if i < 3 && (err == nil || !strings.Contains(err.Error(), "wal")) {
			t.Fatalf("redelivered event %d on the dead stream: %v, want a wal failure", i, err)
		}
		if i >= 3 && err != nil {
			t.Fatalf("redelivered event %d on the healthy stream: %v", i, err)
		}
	}
	wantOps(t, s, clients[0], 2)
	wantOps(t, s, clients[1], 5)
	if st := s.Stats(); st.EventsAccepted != 7 || st.DuplicateEvents != 3 {
		t.Fatalf("accepted %d duplicates %d, want 7 and 3 (only the healthy stream's events were duplicates)",
			st.EventsAccepted, st.DuplicateEvents)
	}

	// The restart that revives the stream, then the redelivery again.
	s2, _ := durableService(t, u, dir, clock.Now, two)
	defer s2.Close(context.Background())
	s2.IngestBatch(batch, errs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("event %d redelivered after the restart: %v", i, err)
		}
	}
	wantOps(t, s2, clients[0], 5)
	wantOps(t, s2, clients[1], 5)
	if st := s2.Stats(); st.EventsAccepted+st.DuplicateEvents != 6 {
		t.Fatalf("restart absorbed the batch as %d new + %d duplicates, want 6 in all", st.EventsAccepted, st.DuplicateEvents)
	}
}

// TestReplayRollbackRecordForms: an "rb" record written before the
// undone event's coordinates were logged (no e/n fields) still replays —
// the operation goes, the mark stays, as it did live at the time — and
// the current form undoes the mark too.
func TestReplayRollbackRecordForms(t *testing.T) {
	s := NewService(testUCAD(t), Config{Shards: 1, SweepEvery: -1})
	defer s.Stop()
	var st RestoreStats
	for _, rec := range []string{
		`{"t":"ev","c":"old","s":"old#1","q":"SELECT 1","ts":"2026-08-06T12:00:00Z","e":1,"n":1}`,
		`{"t":"ev","c":"old","s":"old#1","p":1,"q":"SELECT 1","ts":"2026-08-06T12:00:00Z","e":1,"n":2}`,
		`{"t":"rb","c":"old","s":"old#1","p":1}`,
		`{"t":"ev","c":"new","s":"new#2","q":"SELECT 1","ts":"2026-08-06T12:00:00Z","e":1,"n":1}`,
		`{"t":"ev","c":"new","s":"new#2","p":1,"q":"SELECT 1","ts":"2026-08-06T12:00:00Z","e":1,"n":2}`,
		`{"t":"rb","c":"new","s":"new#2","p":1,"e":1,"n":2}`,
	} {
		if err := s.replayPayload([]byte(rec), &st); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int64{"old": 2, "new": 1}
	for _, ss := range s.ExportSessions() {
		if len(ss.Ops) != 1 || ss.Epoch != 1 || ss.LastSeq != want[ss.Client] {
			t.Fatalf("client %s replayed to %d ops, mark (%d, %d); want 1 op and mark (1, %d)",
				ss.Client, len(ss.Ops), ss.Epoch, ss.LastSeq, want[ss.Client])
		}
	}
}
