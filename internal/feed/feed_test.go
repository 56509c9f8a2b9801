package feed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
)

// normalTemplates mirrors the serve package's deterministic test
// workload: 8 templates, and TopP = Vocab-1 during training means only
// out-of-vocabulary statements flag.
var normalTemplates = []func(i int) string{
	func(i int) string { return fmt.Sprintf("SELECT * FROM videos WHERE vid = %d", i) },
	func(i int) string { return fmt.Sprintf("SELECT * FROM users WHERE uid = %d", i) },
	func(i int) string { return fmt.Sprintf("INSERT INTO views (vid, uid) VALUES (%d, %d)", i, i+1) },
	func(i int) string { return fmt.Sprintf("UPDATE stats SET views = %d WHERE vid = %d", i, i) },
	func(i int) string { return fmt.Sprintf("SELECT * FROM comments WHERE vid = %d", i) },
	func(i int) string {
		return fmt.Sprintf("INSERT INTO comments (vid, uid, text) VALUES (%d, %d, 'c%d')", i, i, i)
	},
	func(i int) string { return fmt.Sprintf("DELETE FROM comments WHERE cid = %d", i) },
	func(i int) string { return fmt.Sprintf("SELECT * FROM stats WHERE vid = %d", i) },
}

const anomalySQL = "SELECT * FROM credit_cards WHERE uid = 7"

func normalStatement(pos int) string {
	return normalTemplates[pos%len(normalTemplates)](pos)
}

func testUCAD(tb testing.TB) *core.UCAD {
	tb.Helper()
	var sessions []*session.Session
	for i := 0; i < 16; i++ {
		s := &session.Session{ID: fmt.Sprintf("train-%d", i), User: "app"}
		for p := 0; p < 12; p++ {
			s.Ops = append(s.Ops, session.Operation{SQL: normalStatement(i + p)})
		}
		sessions = append(sessions, s)
	}
	cfg := core.DefaultConfig()
	cfg.SkipClean = true
	cfg.Model.Hidden = 4
	cfg.Model.Heads = 2
	cfg.Model.Blocks = 1
	cfg.Model.Window = 8
	cfg.Model.Epochs = 2
	cfg.Model.Dropout = 0
	cfg.Model.MinContext = 2
	cfg.Model.TopP = len(normalTemplates)
	u, err := core.Train(cfg, sessions, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

// fakeClock is a settable clock shared by the service under test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestService(tb testing.TB, clk *fakeClock) *serve.Service {
	tb.Helper()
	cfg := serve.DefaultConfig()
	cfg.Workers = 2
	cfg.SweepEvery = 0
	if clk != nil {
		cfg.Clock = clk.Now
	}
	svc := serve.NewService(testUCAD(tb), cfg)
	tb.Cleanup(svc.Stop)
	return svc
}

func writeLines(tb testing.TB, path string, lines ...string) {
	tb.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	for _, ln := range lines {
		if _, err := f.WriteString(ln + "\n"); err != nil {
			tb.Fatal(err)
		}
	}
}

func jsonOp(tb testing.TB, op session.Operation) string {
	tb.Helper()
	b, err := json.Marshal(op)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

func mustNext(tb testing.TB, t *Tailer) session.Operation {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	op, err := t.Next(ctx)
	if err != nil {
		tb.Fatalf("Next: %v", err)
	}
	return op
}

func newTestTailer(tb testing.TB, path string) *Tailer {
	tb.Helper()
	t, err := NewTailer(TailerConfig{Path: path, Poll: 2 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { t.Close() })
	return t
}

func TestTailerReadsJSONLInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	var lines []string
	for i := 0; i < 5; i++ {
		lines = append(lines, jsonOp(t, session.Operation{User: "app", SessionID: "s1", SQL: normalStatement(i)}))
	}
	writeLines(t, path, lines...)

	tl := newTestTailer(t, path)
	for i := 0; i < 5; i++ {
		op := mustNext(t, tl)
		if op.SQL != normalStatement(i) {
			t.Fatalf("op %d: got %q, want %q", i, op.SQL, normalStatement(i))
		}
	}
	if pos := tl.Pos(); pos.Offset == 0 || pos.Ino == 0 {
		t.Fatalf("Pos after reading = %+v, want nonzero ino and offset", pos)
	}
	// Appended lines arrive without reopening.
	writeLines(t, path, jsonOp(t, session.Operation{User: "app", SessionID: "s1", SQL: normalStatement(5)}))
	if op := mustNext(t, tl); op.SQL != normalStatement(5) {
		t.Fatalf("appended op: got %q", op.SQL)
	}
}

func TestTailerSkipsUnparsableLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	writeLines(t, path,
		"{not json",
		jsonOp(t, session.Operation{User: "app", SQL: "SELECT 1"}),
		`{"user":"app"}`, // missing sql
		jsonOp(t, session.Operation{User: "app", SQL: "SELECT 2"}),
	)
	tl := newTestTailer(t, path)
	if op := mustNext(t, tl); op.SQL != "SELECT 1" {
		t.Fatalf("got %q, want SELECT 1", op.SQL)
	}
	if op := mustNext(t, tl); op.SQL != "SELECT 2" {
		t.Fatalf("got %q, want SELECT 2", op.SQL)
	}
}

// TestTailerRotationMidRecord renames the log while the writer is
// mid-line, finishes the record through the old handle, and starts a
// fresh file at the path. Every record must come through exactly once.
func TestTailerRotationMidRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rec1 := jsonOp(t, session.Operation{User: "app", SQL: "SELECT 1"})
	rec2 := jsonOp(t, session.Operation{User: "app", SQL: "SELECT 2"})
	rec3 := jsonOp(t, session.Operation{User: "app", SQL: "SELECT 3"})

	half := len(rec2) / 2
	if _, err := f.WriteString(rec1 + "\n" + rec2[:half]); err != nil {
		t.Fatal(err)
	}

	tl := newTestTailer(t, path)
	if op := mustNext(t, tl); op.SQL != "SELECT 1" {
		t.Fatalf("got %q, want SELECT 1", op.SQL)
	}

	// Rotate while record 2 is torn, then finish it via the old handle.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(rec2[half:] + "\n"); err != nil {
		t.Fatal(err)
	}
	if op := mustNext(t, tl); op.SQL != "SELECT 2" {
		t.Fatalf("after rotation: got %q, want SELECT 2", op.SQL)
	}

	// New file at the path: the tailer must move over to it.
	writeLines(t, path, rec3)
	if op := mustNext(t, tl); op.SQL != "SELECT 3" {
		t.Fatalf("post-rotation file: got %q, want SELECT 3", op.SQL)
	}
}

// TestTailerResumeAcrossRotation checkpoints a position, rotates the
// file, and proves a fresh tailer drains the rotated file from the
// checkpoint before switching to the new one.
func TestTailerResumeAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	recs := make([]string, 6)
	for i := range recs {
		recs[i] = jsonOp(t, session.Operation{User: "app", SQL: fmt.Sprintf("SELECT %d", i)})
	}
	writeLines(t, path, recs[:4]...)

	tl := newTestTailer(t, path)
	for i := 0; i < 2; i++ {
		mustNext(t, tl)
	}
	pos := tl.Pos()
	tl.Close()

	// Rotate, then append the rest to the new file.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	writeLines(t, path, recs[4:]...)

	tl2 := newTestTailer(t, path)
	if err := tl2.SeekTo(pos); err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT 2", "SELECT 3", "SELECT 4", "SELECT 5"}
	for i, w := range want {
		if op := mustNext(t, tl2); op.SQL != w {
			t.Fatalf("resumed op %d: got %q, want %q", i, op.SQL, w)
		}
	}
}

func TestTailerTruncationRestartsAtHead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	writeLines(t, path,
		jsonOp(t, session.Operation{User: "app", SQL: "SELECT 1"}),
		jsonOp(t, session.Operation{User: "app", SQL: "SELECT 2"}),
	)
	tl := newTestTailer(t, path)
	mustNext(t, tl)
	mustNext(t, tl)

	// copytruncate: same inode, size drops to zero, new content follows.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	writeLines(t, path, jsonOp(t, session.Operation{User: "app", SQL: "SELECT 3"}))
	if op := mustNext(t, tl); op.SQL != "SELECT 3" {
		t.Fatalf("after truncation: got %q, want SELECT 3", op.SQL)
	}
	if pos := tl.Pos(); pos.Offset >= 100 {
		t.Fatalf("offset %d not reset by truncation", pos.Offset)
	}
}

func TestParseCSVLine(t *testing.T) {
	op, err := ParseCSVLine([]byte(`2026-08-07T12:00:00Z,alice,10.0.0.7,conn-1,"SELECT * FROM t WHERE a = 1, b = 2"`))
	if err != nil {
		t.Fatal(err)
	}
	if op.User != "alice" || op.Addr != "10.0.0.7" || op.SessionID != "conn-1" {
		t.Fatalf("bad fields: %+v", op)
	}
	if op.SQL != "SELECT * FROM t WHERE a = 1, b = 2" {
		t.Fatalf("bad sql: %q", op.SQL)
	}
	if op.Time.IsZero() {
		t.Fatal("timestamp not parsed")
	}
	if _, err := ParseCSVLine([]byte(`,u,a,s`)); err == nil {
		t.Fatal("want error for wrong field count")
	}
}

func TestSessionizerSeqAndIdleCut(t *testing.T) {
	clk := newFakeClock()
	z := NewSessionizer(time.Minute, clk.Now)
	opAt := func(client string, ts time.Time) serve.Event {
		return z.Event("", session.Operation{SessionID: client, SQL: "SELECT 1", Time: ts})
	}
	base := clk.Now()
	if ev := opAt("c1", base); ev.Seq != 1 {
		t.Fatalf("first op Seq = %d", ev.Seq)
	}
	if ev := opAt("c1", base.Add(time.Second)); ev.Seq != 2 {
		t.Fatalf("second op Seq = %d", ev.Seq)
	}
	if ev := opAt("c2", base.Add(time.Second)); ev.Seq != 1 {
		t.Fatalf("other client Seq = %d", ev.Seq)
	}
	// Past the idle cut-off: a new session starts at 1.
	if ev := opAt("c1", base.Add(5*time.Minute)); ev.Seq != 1 {
		t.Fatalf("post-idle Seq = %d", ev.Seq)
	}
	// Export/Restore round-trips the counters.
	snap := z.Export()
	z2 := NewSessionizer(time.Minute, clk.Now)
	z2.Restore(snap)
	if ev := z2.Event("", session.Operation{SessionID: "c1", SQL: "SELECT 1", Time: base.Add(5*time.Minute + time.Second)}); ev.Seq != 2 {
		t.Fatalf("restored Seq = %d, want 2", ev.Seq)
	}
}

// ServiceDeliverer ingests events directly into an in-process
// serve.Service: the tests' stand-in for a ucad-serve behind HTTP.
// Backpressure (ErrBusy) is retried with backoff; invalid events are
// skipped.
type ServiceDeliverer struct {
	Svc     *serve.Service
	Backoff Backoff
	Metrics *SourceMetrics
}

// Deliver implements Deliverer.
func (d *ServiceDeliverer) Deliver(ctx context.Context, events []serve.Event) error {
	for _, ev := range events {
		for attempt := 0; ; attempt++ {
			err := d.Svc.Ingest(ev)
			switch {
			case err == nil:
				d.Metrics.delivered(1)
			case errors.Is(err, serve.ErrInvalid):
				// The server can never accept it; dropping beats wedging
				// the stream.
				d.Metrics.dropped(1)
			case errors.Is(err, serve.ErrBusy):
				d.Metrics.retried()
				if serr := sleep(ctx, d.Backoff.delay(attempt)); serr != nil {
					return serr
				}
				continue
			default:
				return fmt.Errorf("feed: ingest: %w", err)
			}
			break
		}
	}
	return nil
}

// crashDeliverer delivers through the inner deliverer, then simulates a
// kill -9 in the window between delivery ack and checkpoint commit by
// failing after crashAfter batches.
type crashDeliverer struct {
	inner      Deliverer
	batches    int
	crashAfter int
	crashed    []serve.Event
}

var errCrash = errors.New("simulated crash before checkpoint commit")

func (d *crashDeliverer) Deliver(ctx context.Context, events []serve.Event) error {
	if err := d.inner.Deliver(ctx, events); err != nil {
		return err
	}
	d.batches++
	if d.batches == d.crashAfter {
		d.crashed = append([]serve.Event(nil), events...)
		return errCrash
	}
	return nil
}

// TestFeederCrashResumeExactlyOnce is the core resume guarantee: the
// feeder dies after a batch is delivered but before its checkpoint
// commits; the restarted feeder replays that batch from the committed
// offset, the serving layer deduplicates it, and every session is
// scored exactly once with no lost operations.
func TestFeederCrashResumeExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "audit.jsonl")
	ckptPath := filepath.Join(dir, "feed.ckpt")

	// 3 clients × 8 ops; client c1's op 5 is the OOV anomaly.
	const clients, opsPer = 3, 8
	var lines []string
	total := 0
	for c := 0; c < clients; c++ {
		for p := 0; p < opsPer; p++ {
			sql := normalStatement(c + p)
			if c == 1 && p == 5 {
				sql = anomalySQL
			}
			lines = append(lines, jsonOp(t, session.Operation{
				User: "app", SessionID: fmt.Sprintf("c%d", c), SQL: sql,
			}))
			total++
		}
	}
	writeLines(t, logPath, lines...)

	clk := newFakeClock()
	svc := newTestService(t, clk)

	newFeeder := func(d Deliverer) *Feeder {
		tl, err := NewTailer(TailerConfig{Path: logPath, Poll: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFeeder(FeederConfig{
			Source:         tl,
			Deliver:        d,
			CheckpointPath: ckptPath,
			BatchSize:      4,
			FlushInterval:  5 * time.Millisecond,
			now:            clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Run 1: crash after the 3rd delivered batch (12 events in, 8
	// checkpointed).
	crash := &crashDeliverer{inner: &ServiceDeliverer{Svc: svc}, crashAfter: 3}
	if err := newFeeder(crash).Run(context.Background()); !errors.Is(err, errCrash) {
		t.Fatalf("run 1: err = %v, want crash", err)
	}
	if len(crash.crashed) == 0 {
		t.Fatal("crash batch is empty")
	}

	// Run 2: a fresh feeder restores the checkpoint and replays the
	// uncommitted suffix. Stop it once the whole file is through.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- newFeeder(&ServiceDeliverer{Svc: svc}).Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.Stats()
		if st.EventsAccepted+st.DuplicateEvents >= int64(total)+int64(len(crash.crashed)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for replay: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("run 2: %v", err)
	}

	st := svc.Stats()
	if st.EventsAccepted != int64(total) {
		t.Fatalf("EventsAccepted = %d, want %d (no lost or double-counted ops)", st.EventsAccepted, total)
	}
	if st.DuplicateEvents != int64(len(crash.crashed)) {
		t.Fatalf("DuplicateEvents = %d, want %d (the crashed batch, replayed)", st.DuplicateEvents, len(crash.crashed))
	}
	if st.SessionsOpen != clients {
		t.Fatalf("SessionsOpen = %d, want %d", st.SessionsOpen, clients)
	}

	// Close out and verify each session was scored exactly once.
	svc.Drain()
	clk.Advance(time.Hour)
	svc.CloseIdleNow()
	svc.Drain()
	st = svc.Stats()
	if st.SessionsProcessed != clients {
		t.Fatalf("SessionsProcessed = %d, want %d", st.SessionsProcessed, clients)
	}
	if st.SessionsFlagged != 1 {
		t.Fatalf("SessionsFlagged = %d, want 1 (only the anomaly session)", st.SessionsFlagged)
	}
	if st.UnknownKeys != 1 {
		t.Fatalf("UnknownKeys = %d, want 1", st.UnknownKeys)
	}
	if len(svc.Alerts("open")) == 0 {
		t.Fatal("no alert raised for the anomaly session")
	}
}

// TestFeederReplayFromScratchIsIdempotent deletes the checkpoint
// entirely and re-feeds the whole log into the same service: with the
// sessionizer starting over, sequence numbers repeat from 1 and the
// assembler must absorb every event as a duplicate.
func TestFeederReplayFromScratchIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "audit.jsonl")

	const opsN = 6
	var lines []string
	for p := 0; p < opsN; p++ {
		lines = append(lines, jsonOp(t, session.Operation{User: "app", SessionID: "c0", SQL: normalStatement(p)}))
	}
	writeLines(t, logPath, lines...)

	clk := newFakeClock()
	svc := newTestService(t, clk)

	run := func(ckpt string, wantTotal int64) {
		tl, err := NewTailer(TailerConfig{Path: logPath, Poll: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFeeder(FeederConfig{
			Source: tl, Deliver: &ServiceDeliverer{Svc: svc},
			CheckpointPath: ckpt, BatchSize: 3, FlushInterval: 5 * time.Millisecond,
			now: clk.Now,
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
			if st.EventsAccepted+st.DuplicateEvents >= wantTotal {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("feeder stalled: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
	}

	run(filepath.Join(dir, "run1.ckpt"), opsN)
	run(filepath.Join(dir, "run2.ckpt"), 2*opsN) // fresh checkpoint: full replay

	st := svc.Stats()
	if st.EventsAccepted != opsN {
		t.Fatalf("EventsAccepted = %d, want %d", st.EventsAccepted, opsN)
	}
	if st.DuplicateEvents != opsN {
		t.Fatalf("DuplicateEvents = %d, want %d (second pass fully deduplicated)", st.DuplicateEvents, opsN)
	}
	clk.Advance(time.Hour)
	svc.CloseIdleNow()
	svc.Drain()
	if st := svc.Stats(); st.SessionsProcessed != 1 {
		t.Fatalf("SessionsProcessed = %d, want 1 (no session scored twice)", st.SessionsProcessed)
	}
}

// unpositionedSource has no durable position: the feeder checkpoints it
// with Pos.Kind "none".
type unpositionedSource struct{}

func (unpositionedSource) Next(context.Context) (session.Operation, error) {
	return session.Operation{}, io.EOF
}
func (unpositionedSource) Close() error { return nil }

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feed.ckpt")
	if _, ok, err := LoadCheckpoint(path); err != nil || ok {
		t.Fatalf("missing checkpoint: ok=%v err=%v", ok, err)
	}
	f, err := NewFeeder(FeederConfig{Source: unpositionedSource{}, Deliver: &ServiceDeliverer{}, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	f.sess.Event("t0", session.Operation{SessionID: "c1", SQL: "SELECT 1", Time: time.Now()})
	if err := f.commit(); err != nil {
		t.Fatal(err)
	}
	cp, ok, err := LoadCheckpoint(path)
	if err != nil || !ok {
		t.Fatalf("reload: ok=%v err=%v", ok, err)
	}
	if cp.Pos.Kind != "none" {
		t.Fatalf("Pos.Kind = %q for a non-positioned source", cp.Pos.Kind)
	}
	if cp.Sessions["c1"].Seq != 1 {
		t.Fatalf("sessions not checkpointed: %+v", cp.Sessions)
	}
}
