package feed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
)

// captureServer is a /v1/events endpoint that records every accepted
// event keyed by (client, epoch, seq) — the serving layer's dedupe
// identity — and can be flipped into a hard-down state (plain 503, the
// shape of a dead load balancer backend).
type captureServer struct {
	down atomic.Bool

	mu        sync.Mutex
	events    map[string]serve.Event
	conflicts []string
}

func newCaptureServer() *captureServer {
	return &captureServer{events: make(map[string]serve.Event)}
}

func (c *captureServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.down.Load() {
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Path == "/healthz" {
		fmt.Fprintln(w, "ok")
		return
	}
	var events []serve.Event
	if err := json.NewDecoder(r.Body).Decode(&events); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	for _, ev := range events {
		key := fmt.Sprintf("%s/%d/%d", ev.ClientID, ev.Epoch, ev.Seq)
		if prev, ok := c.events[key]; ok && prev.SQL != ev.SQL {
			c.conflicts = append(c.conflicts, key)
			continue
		}
		c.events[key] = ev
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"accepted":%d}`, len(events))
}

func (c *captureServer) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func (c *captureServer) get(key string) (serve.Event, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev, ok := c.events[key]
	return ev, ok
}

// TestHTTPDelivererURLFailover drives the failover protocol: sticky on
// the established server, a dead server's batch is held back behind
// ErrFailover (the new server must not see mid-stream events before the
// caller rewinds), and the next Deliver targets the new server.
func TestHTTPDelivererURLFailover(t *testing.T) {
	primary, standby := newCaptureServer(), newCaptureServer()
	ps, ss := httptest.NewServer(primary), httptest.NewServer(standby)
	defer ps.Close()
	defer ss.Close()

	d := &HTTPDeliverer{
		URLs:    []string{ps.URL, ss.URL},
		Backoff: Backoff{Min: time.Millisecond, Max: 2 * time.Millisecond},
	}
	ctx := context.Background()
	ev := func(seq int64) []serve.Event {
		return []serve.Event{{ClientID: "c", Epoch: 1, Seq: seq, SQL: fmt.Sprintf("SELECT %d", seq)}}
	}

	if err := d.Deliver(ctx, ev(1)); err != nil {
		t.Fatal(err)
	}
	if d.Failovers() != 0 || primary.count() != 1 {
		t.Fatalf("first delivery: failovers=%d primary=%d", d.Failovers(), primary.count())
	}

	// Primary dies: the batch is NOT delivered anywhere — the caller is
	// told to rewind first.
	primary.down.Store(true)
	if err := d.Deliver(ctx, ev(2)); !errors.Is(err, ErrFailover) {
		t.Fatalf("dead primary: err=%v, want ErrFailover", err)
	}
	if d.Failovers() != 1 || standby.count() != 0 {
		t.Fatalf("failover handshake: failovers=%d standby=%d (no events may land before the rewind)",
			d.Failovers(), standby.count())
	}
	if err := d.Deliver(ctx, ev(2)); err != nil {
		t.Fatal(err)
	}
	if standby.count() != 1 {
		t.Fatalf("post-failover delivery: standby=%d", standby.count())
	}

	// Sticky: the standby keeps the stream even though the list prefers
	// the primary — no flapping probe back while it acknowledges.
	if err := d.Deliver(ctx, ev(3)); err != nil {
		t.Fatal(err)
	}
	if d.Failovers() != 1 || standby.count() != 2 {
		t.Fatalf("sticky delivery: failovers=%d standby=%d", d.Failovers(), standby.count())
	}

	// Standby dies, primary recovered: same handshake back.
	primary.down.Store(false)
	standby.down.Store(true)
	if err := d.Deliver(ctx, ev(4)); !errors.Is(err, ErrFailover) {
		t.Fatalf("dead standby: err=%v, want ErrFailover", err)
	}
	if err := d.Deliver(ctx, ev(4)); err != nil {
		t.Fatal(err)
	}
	if d.Failovers() != 2 || primary.count() != 2 {
		t.Fatalf("failback delivery: failovers=%d primary=%d", d.Failovers(), primary.count())
	}
}

// TestHTTPDelivererBusyIsNotDead pins the busy-vs-dead distinction: an
// envelope-carrying retryable refusal comes from a live server, so the
// deliverer retries in place instead of failing over.
func TestHTTPDelivererBusyIsNotDead(t *testing.T) {
	standby := newCaptureServer()
	ss := httptest.NewServer(standby)
	defer ss.Close()

	var busyHits atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		if busyHits.Add(1) < 3 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"busy","message":"queue full","retryable":true}}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"accepted":1}`)
	}))
	defer busy.Close()

	d := &HTTPDeliverer{
		URLs:    []string{busy.URL, ss.URL},
		Backoff: Backoff{Min: time.Millisecond, Max: 2 * time.Millisecond},
	}
	if err := d.Deliver(context.Background(), []serve.Event{{ClientID: "c", Epoch: 1, Seq: 1, SQL: "SELECT 1"}}); err != nil {
		t.Fatal(err)
	}
	if d.Failovers() != 0 || standby.count() != 0 {
		t.Fatalf("backpressure caused a failover: failovers=%d standby=%d", d.Failovers(), standby.count())
	}
	if busyHits.Load() < 3 {
		t.Fatalf("busy server saw %d attempts, want the retries", busyHits.Load())
	}
}

// TestTailerRewind proves a mid-run rewind rereads the same records the
// first pass returned from the captured position onward.
func TestTailerRewind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	var lines []string
	for i := 0; i < 6; i++ {
		lines = append(lines, jsonOp(t, session.Operation{User: "app", SessionID: "s1", SQL: fmt.Sprintf("SELECT %d", i)}))
	}
	writeLines(t, path, lines...)

	tl := newTestTailer(t, path)
	var mark FilePos
	var first []string
	for i := 0; i < 6; i++ {
		op := mustNext(t, tl)
		if i == 1 {
			mark = tl.Pos() // just past record 1
		}
		if i >= 2 {
			first = append(first, op.SQL)
		}
	}
	if err := tl.Rewind(mark); err != nil {
		t.Fatal(err)
	}
	for i, want := range first {
		if got := mustNext(t, tl).SQL; got != want {
			t.Fatalf("replayed record %d: got %q want %q", i, got, want)
		}
	}
}

// TestFeederFailoverRewindExactlyOnce is the feed half of the failover
// story: a feeder streaming to a primary/standby URL pair loses the
// primary mid-stream, rotates to the standby, rewinds to its retained
// failover point, and redelivers — the standby alone ends with every
// operation exactly once under the same (epoch, seq) labels the first
// pass issued.
func TestFeederFailoverRewindExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "audit.jsonl")
	ckptPath := filepath.Join(dir, "feed.ckpt")

	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	line := func(i int) string {
		return jsonOp(t, session.Operation{
			User: "app", SessionID: "s1",
			SQL:  fmt.Sprintf("SELECT %d", i),
			Time: base.Add(time.Duration(i) * time.Second),
		})
	}
	const total = 40
	for i := 0; i < total/2; i++ {
		writeLines(t, logPath, line(i))
	}

	primary, standby := newCaptureServer(), newCaptureServer()
	ps, ss := httptest.NewServer(primary), httptest.NewServer(standby)
	defer ps.Close()
	defer ss.Close()

	tl, err := NewTailer(TailerConfig{Path: logPath, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	f, err := NewFeeder(FeederConfig{
		Source: tl,
		Deliver: &HTTPDeliverer{
			URLs:    []string{ps.URL, ss.URL},
			Backoff: Backoff{Min: time.Millisecond, Max: 2 * time.Millisecond},
		},
		CheckpointPath: ckptPath,
		BatchSize:      4,
		FlushInterval:  5 * time.Millisecond,
		// A huge window pins the rewind target at the stream's start, so
		// the standby must independently end up with the complete
		// session — the strongest form of the zero-loss claim.
		FailoverRewind: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				cancel()
				t.Fatalf("timed out waiting for %s (primary=%d standby=%d)",
					what, primary.count(), standby.count())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Let the primary absorb the first half, then kill it and finish the
	// stream: delivery must rotate to the standby and rewind.
	waitFor("primary to absorb the first half", func() bool { return primary.count() >= total/2 })
	primary.down.Store(true)
	for i := total / 2; i < total; i++ {
		writeLines(t, logPath, line(i))
	}
	waitFor("standby to hold the full stream", func() bool { return standby.count() >= total })

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("feeder exit: %v", err)
	}

	// Exactly once, same labels: one session, seq 1..total, each seq
	// carrying the SQL the first pass assigned it, no conflicting
	// duplicates anywhere.
	standby.mu.Lock()
	conflicts := append([]string(nil), standby.conflicts...)
	standby.mu.Unlock()
	if len(conflicts) != 0 {
		t.Fatalf("conflicting redeliveries at %v", conflicts)
	}
	if n := standby.count(); n != total {
		t.Fatalf("standby holds %d events, want %d", n, total)
	}
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("s1/1/%d", i+1)
		ev, ok := standby.get(key)
		if !ok {
			t.Fatalf("standby missing %s", key)
		}
		if want := fmt.Sprintf("SELECT %d", i); ev.SQL != want {
			t.Fatalf("%s: got %q want %q", key, ev.SQL, want)
		}
	}

	// The rewind was committed: the checkpoint carries the retained
	// failover state so a crash mid-redelivery resumes behind the
	// window too.
	cp, ok, err := LoadCheckpoint(ckptPath)
	if err != nil || !ok {
		t.Fatalf("load checkpoint: ok=%v err=%v", ok, err)
	}
	if cp.Failover == nil || cp.Failover.Active == nil {
		t.Fatalf("checkpoint lacks failover state: %+v", cp)
	}
}
