package serve

// Tests for the streaming front-door boundary: sequence-number
// deduplication (exactly-once sessions over an at-least-once feeder)
// and the UNK path for out-of-vocabulary templates.

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/session"
)

func TestAssemblerSeqDedupe(t *testing.T) {
	clk := newFakeClock()
	a := NewAssembler(10*time.Minute, clk.Now)

	ev := func(seq int64, sql string) Event {
		return Event{ClientID: "c", User: "u", SQL: sql, Seq: seq, Epoch: 1}
	}
	ap1 := a.Append(ev(1, "s1"), 1, 4)
	if ap1.Dup || ap1.Pos != 0 {
		t.Fatalf("first append: %+v", ap1)
	}
	ap2 := a.Append(ev(2, "s2"), 2, 4)
	if ap2.Dup || ap2.Pos != 1 {
		t.Fatalf("second append: %+v", ap2)
	}

	// Redelivery of both positions: acknowledged as duplicates, state
	// untouched.
	for seq := int64(1); seq <= 2; seq++ {
		ap := a.Append(ev(seq, "s-replayed"), 9, 4)
		if !ap.Dup {
			t.Fatalf("seq %d not deduplicated: %+v", seq, ap)
		}
		if ap.SessionID != ap1.SessionID {
			t.Fatalf("dup names session %q, want %q", ap.SessionID, ap1.SessionID)
		}
	}
	ap3 := a.Append(ev(3, "s3"), 3, 4)
	if ap3.Dup || ap3.Pos != 2 {
		t.Fatalf("post-replay append: %+v", ap3)
	}
	if got := a.OpenCount(); got != 1 {
		t.Fatalf("open sessions = %d, want 1", got)
	}

	// Seq zero means "no sequence": appends are never deduplicated.
	ap := a.Append(Event{ClientID: "c", User: "u", SQL: "s4"}, 4, 4)
	if ap.Dup || ap.Pos != 3 {
		t.Fatalf("unsequenced append: %+v", ap)
	}

	// A duplicate leaves the idle clock alone: no WAL record carries its
	// arrival, so a restored service could not replay a refresh.
	clk.Advance(9 * time.Minute)
	a.Append(ev(1, "s1"), 1, 4)
	clk.Advance(2 * time.Minute)
	if closed := a.CloseIdle(); len(closed) != 1 {
		t.Fatalf("%d sessions closed 11 minutes after the last absorbed event, want 1", len(closed))
	}
}

// TestAssemblerEpochFencedDedupe pins the epoch fence: a feeder
// sessionizing by event time restarts Seq at 1 under a new epoch when
// the log has an idle gap, and the wall-clock assembler — whose session
// for that client may still be open — must treat those events as fresh
// traffic, not redeliveries, while still deduplicating true replays of
// either epoch.
func TestAssemblerEpochFencedDedupe(t *testing.T) {
	clk := newFakeClock()
	a := NewAssembler(10*time.Minute, clk.Now)
	ev := func(epoch, seq int64) Event {
		return Event{ClientID: "c", User: "u", SQL: "s", Seq: seq, Epoch: epoch}
	}

	for seq := int64(1); seq <= 3; seq++ {
		if ap := a.Append(ev(1, seq), int(seq), 8); ap.Dup {
			t.Fatalf("epoch 1 seq %d wrongly deduplicated", seq)
		}
	}
	if ap := a.Append(ev(1, 2), 9, 8); !ap.Dup {
		t.Fatalf("epoch 1 seq 2 replay not deduplicated: %+v", ap)
	}

	// The feeder's post-gap session: a higher epoch with Seq back at 1
	// is new traffic even though the open session already holds 3 ops.
	ap := a.Append(ev(2, 1), 4, 8)
	if ap.Dup || ap.Pos != 3 {
		t.Fatalf("epoch 2 seq 1 swallowed as duplicate: %+v", ap)
	}
	if ap := a.Append(ev(2, 2), 5, 8); ap.Dup || ap.Pos != 4 {
		t.Fatalf("epoch 2 seq 2: %+v", ap)
	}

	// Replays of either epoch are still duplicates.
	if ap := a.Append(ev(1, 3), 9, 8); !ap.Dup {
		t.Fatalf("older-epoch replay not deduplicated: %+v", ap)
	}
	if ap := a.Append(ev(2, 1), 9, 8); !ap.Dup {
		t.Fatalf("current-epoch replay not deduplicated: %+v", ap)
	}
	if got := a.OpenCount(); got != 1 {
		t.Fatalf("open sessions = %d, want 1", got)
	}

	// An epoch-less sequenced event cannot be compared against the
	// epoch mark; it appends (a rare duplicate beats dropped live data).
	if ap := a.Append(Event{ClientID: "c", User: "u", SQL: "s", Seq: 1}, 6, 8); ap.Dup {
		t.Fatalf("epoch-less event wrongly deduplicated: %+v", ap)
	}

	// The high-water mark survives Export/Restore (snapshot recovery).
	seqFloor, states := a.Export()
	b := NewAssembler(10*time.Minute, clk.Now)
	b.Restore(states[0])
	b.SetSeqFloor(seqFloor)
	if ap := b.Append(ev(2, 2), 9, 8); !ap.Dup {
		t.Fatalf("restored assembler lost the epoch mark: %+v", ap)
	}
	if ap := b.Append(ev(3, 1), 7, 8); ap.Dup {
		t.Fatalf("restored assembler swallowed a new epoch: %+v", ap)
	}

	// ...and survives WAL replay (crash recovery).
	c := NewAssembler(10*time.Minute, clk.Now)
	if !c.ReplayAppend("c", "c#1", 0, session.Operation{User: "u", SQL: "s"}, 1, 2, 5) {
		t.Fatal("replay append refused")
	}
	if ap := c.Append(ev(2, 5), 9, 8); !ap.Dup {
		t.Fatalf("replayed assembler lost the epoch mark: %+v", ap)
	}
	if ap := c.Append(ev(2, 6), 2, 8); ap.Dup {
		t.Fatalf("replayed assembler swallowed fresh traffic: %+v", ap)
	}
}

func TestIngestSeqDedupeExactlyOnce(t *testing.T) {
	u := testUCAD(t)
	s := NewService(u, Config{Workers: 1, QueueSize: 64, SweepEvery: -1})
	defer s.Stop()

	deliver := func() {
		for i := 0; i < 6; i++ {
			ev := Event{ClientID: "conn-1", User: "app", SQL: normalStatement(i), Seq: int64(i + 1), Epoch: 1}
			if err := s.Ingest(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliver()
	deliver() // full replay, as after a feeder crash before its offset commit
	// A seq names a position within an epoch; without one it cannot be
	// fenced, so the event is refused rather than guessed at.
	if err := s.Ingest(Event{ClientID: "conn-1", User: "app", SQL: normalStatement(6), Seq: 7}); err != ErrInvalid {
		t.Fatalf("seq without epoch: %v, want ErrInvalid", err)
	}
	s.Drain()

	st := s.Stats()
	if st.EventsAccepted != 6 {
		t.Fatalf("accepted = %d, want 6 (replay must not re-append)", st.EventsAccepted)
	}
	if st.DuplicateEvents != 6 {
		t.Fatalf("duplicates = %d, want 6", st.DuplicateEvents)
	}
	if st.SessionsOpen != 1 {
		t.Fatalf("open sessions = %d, want 1", st.SessionsOpen)
	}
	// The replay must not have scored anything twice: 6 ops, MinContext
	// 2 → positions 2..5 scored exactly once each.
	if st.OpsScored != 4 {
		t.Fatalf("ops scored = %d, want 4", st.OpsScored)
	}
}

func TestIngestDurableSeqDedupeSkipsWAL(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	s := NewService(u, Config{
		Workers: 1, QueueSize: 64, SweepEvery: -1,
		Durability: &DurabilityConfig{Dir: filepath.Join(dir, "wal")},
	})
	if _, err := s.Restore(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	for i := 0; i < 4; i++ {
		ev := Event{ClientID: "conn-1", User: "app", SQL: normalStatement(i), Seq: int64(i + 1), Epoch: 1}
		if err := s.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	walBefore := s.metrics.walAppends.Value()
	for i := 0; i < 4; i++ {
		ev := Event{ClientID: "conn-1", User: "app", SQL: normalStatement(i), Seq: int64(i + 1), Epoch: 1}
		if err := s.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.metrics.walAppends.Value(); got != walBefore {
		t.Fatalf("wal appends grew %v -> %v on pure redelivery", walBefore, got)
	}
	if st := s.Stats(); st.DuplicateEvents != 4 {
		t.Fatalf("duplicates = %d, want 4", st.DuplicateEvents)
	}
}

func TestIngestUnknownKeyCountedAndFlagged(t *testing.T) {
	u := testUCAD(t)
	s := NewService(u, Config{Workers: 1, QueueSize: 64, SweepEvery: -1})
	defer s.Stop()

	for i := 0; i < 4; i++ {
		if err := s.Ingest(Event{ClientID: "c", User: "app", SQL: normalStatement(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-vocabulary statement: absorbed (no error), counted, and —
	// because UNK never ranks in the top-p — flagged mid-session.
	if err := s.Ingest(Event{ClientID: "c", User: "app", SQL: anomalySQL}); err != nil {
		t.Fatalf("OOV statement must be accepted, got %v", err)
	}
	s.Drain()

	st := s.Stats()
	if st.UnknownKeys != 1 {
		t.Fatalf("unknown keys = %d, want 1", st.UnknownKeys)
	}
	if st.EventsAccepted != 5 {
		t.Fatalf("accepted = %d, want 5", st.EventsAccepted)
	}
	if st.MidSessionFlags == 0 {
		t.Fatal("OOV operation was not flagged")
	}
}
