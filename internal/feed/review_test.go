package feed

// Regression tests for the clock-domain and delivery-classification
// fixes around the front door: stream-clock sweeping, epoch fencing and
// rotation-gap accounting.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// TestSessionizerBacklogSweepKeepsCounters pins the stream-clock sweep:
// a feeder catching up on records far older than the idle window (first
// start on an existing log, restart after downtime) must not have its
// live counters deleted by a wall-clock sweep at every commit.
func TestSessionizerBacklogSweepKeepsCounters(t *testing.T) {
	clk := newFakeClock()
	z := NewSessionizer(time.Minute, clk.Now)
	old := clk.Now().Add(-24 * time.Hour) // a day-old backlog

	ev1 := z.Event("", session.Operation{SessionID: "c1", SQL: "SELECT 1", Time: old})
	if ev1.Seq != 1 || ev1.Epoch == 0 {
		t.Fatalf("first op: %+v", ev1)
	}
	z.Sweep() // simulates the post-commit sweep mid-backlog
	ev2 := z.Event("", session.Operation{SessionID: "c1", SQL: "SELECT 1", Time: old.Add(time.Second)})
	if ev2.Seq != 2 || ev2.Epoch != ev1.Epoch {
		t.Fatalf("counters lost across sweep: %+v (want Seq 2, epoch %d)", ev2, ev1.Epoch)
	}

	// Clients genuinely idle in stream time do get swept once the stream
	// clock moves past their cut-off.
	z.Event("", session.Operation{SessionID: "c2", SQL: "SELECT 1", Time: old.Add(2 * time.Second)})
	z.Event("", session.Operation{SessionID: "c1", SQL: "SELECT 1", Time: old.Add(10 * time.Minute)})
	z.Sweep()
	if _, ok := z.state["c2"]; ok {
		t.Fatal("stream-idle client survived sweep")
	}
	if _, ok := z.state["c1"]; !ok {
		t.Fatal("stream-live client swept")
	}
}

// TestSessionizerEpochMonotonic pins epoch assignment: each idle cut
// starts a new epoch, and the counter round-trips the checkpoint so a
// restart never reissues an epoch the serving layer may still hold.
func TestSessionizerEpochMonotonic(t *testing.T) {
	clk := newFakeClock()
	z := NewSessionizer(time.Minute, clk.Now)
	base := clk.Now()

	e1 := z.Event("", session.Operation{SessionID: "c1", SQL: "q", Time: base})
	e2 := z.Event("", session.Operation{SessionID: "c1", SQL: "q", Time: base.Add(5 * time.Minute)})
	if e2.Epoch <= e1.Epoch || e2.Seq != 1 {
		t.Fatalf("idle cut did not bump epoch: %+v -> %+v", e1, e2)
	}

	snap, epoch := z.Export(), z.Epoch()
	z2 := NewSessionizer(time.Minute, clk.Now)
	z2.Restore(snap)
	z2.SetEpoch(epoch)
	cont := z2.Event("", session.Operation{SessionID: "c1", SQL: "q", Time: base.Add(5*time.Minute + time.Second)})
	if cont.Seq != 2 || cont.Epoch != e2.Epoch {
		t.Fatalf("restored continuation: %+v, want Seq 2 epoch %d", cont, e2.Epoch)
	}
	fresh := z2.Event("", session.Operation{SessionID: "c9", SQL: "q", Time: base.Add(5 * time.Minute)})
	if fresh.Epoch <= epoch {
		t.Fatalf("restart reissued epoch %d (counter was %d)", fresh.Epoch, epoch)
	}
}

// TestFeederBacklogEventTimeGapNoLoss is the reviewed loss scenario
// end-to-end: a backlog replay where the log's event-time gap exceeds
// the idle window while the server's wall clock barely moves. The
// feeder starts a new session (Seq back to 1) for the post-gap records;
// without epoch fencing the server treats every one of them as a
// redelivery of the still-open session and silently drops them.
func TestFeederBacklogEventTimeGapNoLoss(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "audit.jsonl")

	clk := newFakeClock()
	base := clk.Now().Add(-2 * time.Hour) // backlog: records are old
	var lines []string
	for p := 0; p < 4; p++ {
		lines = append(lines, jsonOp(t, session.Operation{
			User: "app", SessionID: "c0", SQL: normalStatement(p), Time: base.Add(time.Duration(p) * time.Second),
		}))
	}
	for p := 0; p < 4; p++ { // > 10 min event-time gap: a new session
		lines = append(lines, jsonOp(t, session.Operation{
			User: "app", SessionID: "c0", SQL: normalStatement(p), Time: base.Add(30*time.Minute + time.Duration(p)*time.Second),
		}))
	}
	writeLines(t, logPath, lines...)

	svc := newTestService(t, clk)
	tl, err := NewTailer(TailerConfig{Path: logPath, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFeeder(FeederConfig{
		Source: tl, Deliver: &ServiceDeliverer{Svc: svc},
		CheckpointPath: filepath.Join(dir, "feed.ckpt"),
		BatchSize:      2, // commits (and sweeps) while still mid-backlog
		FlushInterval:  5 * time.Millisecond,
		now:            clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.Stats()
		if st.EventsAccepted+st.DuplicateEvents >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.EventsAccepted != 8 {
		t.Fatalf("EventsAccepted = %d, want 8 (post-gap session must not be swallowed as duplicates)", st.EventsAccepted)
	}
	if st.DuplicateEvents != 0 {
		t.Fatalf("DuplicateEvents = %d, want 0 (nothing was replayed)", st.DuplicateEvents)
	}
}

// TestTailerDoubleRotationCountsGap: the tailer follows one rotation at
// a time; when the log rotates again before the first rotation finished
// draining, the skipped generation must at least be counted.
func TestTailerDoubleRotationCountsGap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	m := NewMetrics(nil)
	sm := m.Source("tail")
	tl, err := NewTailer(TailerConfig{Path: path, Poll: time.Millisecond, Metrics: sm})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	writeLines(t, path, jsonOp(t, session.Operation{SessionID: "c", SQL: "gen A"}))
	if op := mustNext(t, tl); op.SQL != "gen A" {
		t.Fatalf("first read: %+v", op)
	}

	// First rotation: A -> A.1, generation B becomes live.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	writeLines(t, path, jsonOp(t, session.Operation{SessionID: "c", SQL: "gen B"}))
	if _, err := tl.fill(); err != nil { // detects rotation, pins the expected generation
		t.Fatal(err)
	}

	// Second rotation while the grace polls are still running: B is
	// renamed away and generation C becomes live. B is never opened.
	if err := os.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	writeLines(t, path, jsonOp(t, session.Operation{SessionID: "c", SQL: "gen C"}))

	if op := mustNext(t, tl); op.SQL != "gen C" {
		t.Fatalf("post-rotation read: %+v", op)
	}
	if got := sm.rotationGaps.Value(); got != 1 {
		t.Fatalf("rotation gaps = %d, want 1 (generation B was skipped)", got)
	}
}
