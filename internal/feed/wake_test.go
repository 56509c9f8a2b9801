package feed

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
)

// trickleSource yields one operation every `every`, the first at once;
// a ctx that ends first returns ctx.Err() and the operation stays due.
type trickleSource struct {
	every time.Duration
	due   time.Time
	n     int
}

func (s *trickleSource) Next(ctx context.Context) (session.Operation, error) {
	if s.due.IsZero() {
		s.due = time.Now()
	}
	t := time.NewTimer(time.Until(s.due))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return session.Operation{}, ctx.Err()
	case <-t.C:
	}
	s.n++
	s.due = s.due.Add(s.every)
	return session.Operation{User: "app", SessionID: "s1", SQL: normalStatement(s.n)}, nil
}

func (s *trickleSource) Close() error { return nil }

// batchClock records when each delivered batch arrived and its size.
type batchClock struct {
	mu    sync.Mutex
	at    []time.Time
	sizes []int
}

func (d *batchClock) Deliver(ctx context.Context, events []serve.Event) error {
	d.mu.Lock()
	d.at, d.sizes = append(d.at, time.Now()), append(d.sizes, len(events))
	d.mu.Unlock()
	return nil
}

func (d *batchClock) first() (time.Time, int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.at) == 0 {
		return time.Time{}, 0, false
	}
	return d.at[0], d.sizes[0], true
}

// TestFeederFlushIntervalFromFirstEvent: a source giving one operation
// every 50ms never lets a 64-event batch fill within the 200ms flush
// interval, so the first batch must be delivered about 200ms after its
// first event — not FlushInterval after the last, which a steady
// trickle keeps pushing back until the batch is full (3.2s).
func TestFeederFlushIntervalFromFirstEvent(t *testing.T) {
	del := &batchClock{}
	f, err := NewFeeder(FeederConfig{
		Source:        &trickleSource{every: 50 * time.Millisecond},
		Deliver:       del,
		BatchSize:     64,
		FlushInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- f.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if at, n, ok := del.first(); ok {
			if wait := at.Sub(start); wait > time.Second {
				t.Fatalf("first batch (%d events) delivered %v after its first event, want about 200ms", n, wait)
			}
			if n >= 64 {
				t.Fatalf("first batch held %d events, want a partial batch", n)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no batch delivered within 2s of the first event (flush interval restarted per event?)")
}

// TestTailerPollFallback: with the file watch off (as off Linux or
// when inotify cannot be set up), the Poll timer alone still delivers
// appended lines and follows creation.
func TestTailerPollFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	tl := newTestTailer(t, path)
	tl.w.close()
	tl.w = nil

	writeLines(t, path, jsonOp(t, session.Operation{User: "app", SQL: "SELECT 1"}))
	if op := mustNext(t, tl); op.SQL != "SELECT 1" {
		t.Fatalf("got %q, want SELECT 1", op.SQL)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		writeLines(t, path, jsonOp(t, session.Operation{User: "app", SQL: "SELECT 2"}))
	}()
	if op := mustNext(t, tl); op.SQL != "SELECT 2" {
		t.Fatalf("got %q, want SELECT 2", op.SQL)
	}
}

// TestTailerRotationGraceIsWallTime: a rotation wakes the tailer
// several times over — the rename, the new file's creation, a
// compressing rotator's copy of the renamed file and its unlink — but
// the rotated-away file must still be drained until it has been quiet
// for the grace period, so a record the writer finishes through its
// old handle a moment later arrives once and whole, ahead of the new
// file's records.
func TestTailerRotationGraceIsWallTime(t *testing.T) {
	const poll = 300 * time.Millisecond
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	old, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	rec1 := jsonOp(t, session.Operation{User: "app", SQL: "SELECT 1"})
	rec2 := jsonOp(t, session.Operation{User: "app", SQL: "SELECT 2"})
	half := len(rec2) / 2
	if _, err := old.WriteString(rec1 + "\n" + rec2[:half]); err != nil {
		t.Fatal(err)
	}

	sm := NewMetrics(nil).Source("tail")
	tl, err := NewTailer(TailerConfig{Path: path, Poll: poll, Metrics: sm})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if op := mustNext(t, tl); op.SQL != "SELECT 1" {
		t.Fatalf("got %q, want SELECT 1", op.SQL)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := make(chan string, 16)
	go func() {
		for {
			op, err := tl.Next(ctx)
			if err != nil {
				close(got)
				return
			}
			got <- op.SQL
		}
	}()

	time.Sleep(20 * time.Millisecond) // the reader is waiting on the torn record
	// Each step its own wake-up: rename, create and append to the new
	// file several times, compress the rotated file, unlink it.
	pause := func() { time.Sleep(10 * time.Millisecond) }
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	pause()
	var want []string
	for i := 0; i < 4; i++ {
		sql := "NEW " + string(rune('a'+i))
		writeLines(t, path, jsonOp(t, session.Operation{User: "app", SQL: sql}))
		want = append(want, sql)
		pause()
	}
	if err := os.WriteFile(path+".1.gz", []byte("gz"), 0o644); err != nil {
		t.Fatal(err)
	}
	pause()
	if err := os.Remove(path + ".1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(poll / 2)
	if _, err := old.WriteString(rec2[half:] + "\n"); err != nil {
		t.Fatal(err)
	}

	want = append([]string{"SELECT 2"}, want...)
	for i, w := range want {
		select {
		case sql, ok := <-got:
			if !ok {
				t.Fatalf("reader stopped after %d of %d records", i, len(want))
			}
			if sql != w {
				t.Fatalf("record %d: got %q, want %q", i, sql, w)
			}
		case <-ctx.Done():
			t.Fatalf("record %d (%q) never arrived", i, w)
		}
	}
	if n := sm.parseErrors.Value(); n != 0 {
		t.Fatalf("parse errors = %d, want 0 (the torn record was flushed early)", n)
	}
	cancel()
	for range got {
	}
}
