package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/session"
)

// mockCloseout stands in for a close-out detection verdict flagging
// positions 6 and 10 (of a session at least 11 operations long).
var mockCloseout = []int{6, 10}

// closedSession is a closed session whose operations carry stmts.
func closedSession(id string, stmts ...string) *session.Session {
	s := &session.Session{ID: id, User: "u"}
	for _, sql := range stmts {
		s.Ops = append(s.Ops, session.Operation{SQL: sql})
	}
	return s
}

// normalTemplates is a small application workload (8 statement
// templates); literals vary per call and normalize away.
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

// anomalySQL is an A1-style privilege abuse: a confidential-table read
// no role ever issued during training, so it tokenizes to PadKey and
// must rank last.
const anomalySQL = "SELECT * FROM credit_cards WHERE uid = 7"

func normalStatement(pos int) string {
	return normalTemplates[pos%len(normalTemplates)](pos)
}

// testUCAD trains a deterministic detector over the 8-template
// workload. TopP is Vocab-1, so every in-vocabulary operation passes
// the top-p test and only out-of-vocabulary statements flag — the
// serving pipeline's behavior becomes exactly predictable regardless of
// how well the tiny model trained.
func testUCAD(tb testing.TB) *core.UCAD { return toyUCAD(tb, normalTemplates) }

// toyUCAD is testUCAD over the given templates (TopP = len(templates)).
func toyUCAD(tb testing.TB, templates []func(i int) string) *core.UCAD {
	tb.Helper()
	return toyUCADTopP(tb, templates, len(templates))
}

// toyUCADTopP is toyUCAD with the given top-p: below len(templates) an
// in-vocabulary statement can fail the test too, depending on its
// context.
func toyUCADTopP(tb testing.TB, templates []func(i int) string, topP int) *core.UCAD {
	tb.Helper()
	var sessions []*session.Session
	for i := 0; i < 16; i++ {
		s := &session.Session{ID: fmt.Sprintf("train-%d", i), User: "app"}
		for p := 0; p < 12; p++ {
			s.Ops = append(s.Ops, session.Operation{SQL: templates[(i+p)%len(templates)](i + p)})
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
	cfg.Model.TopP = topP
	u, err := core.Train(cfg, sessions, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if u.Vocab.Size() != len(templates)+1 {
		tb.Fatalf("vocab size %d, want %d", u.Vocab.Size(), len(templates)+1)
	}
	return u
}

// fakeClock is a mutex-guarded settable clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestAssemblerSessionsPerClientAndIdleCloseout(t *testing.T) {
	clk := newFakeClock()
	a := NewAssembler(10*time.Minute, clk.Now)

	apA := a.Append(Event{ClientID: "a", User: "ua", SQL: "s1"}, 1, 4)
	if apA.Pos != 0 || len(apA.Keys) != 1 || apA.Keys[0] != 1 {
		t.Fatalf("first append: %+v", apA)
	}
	a.Append(Event{ClientID: "b", User: "ub", SQL: "s1"}, 1, 4)
	if a.OpenCount() != 2 {
		t.Fatalf("open = %d, want 2", a.OpenCount())
	}

	clk.Advance(5 * time.Minute)
	apB := a.Append(Event{ClientID: "b", User: "ub", SQL: "s2"}, 2, 4)
	if apB.Pos != 1 || apB.SessionID == apA.SessionID {
		t.Fatalf("per-client assembly broken: %+v vs %+v", apB, apA)
	}

	// a idle 11 min (past timeout), b idle 6 min (refreshed).
	clk.Advance(6 * time.Minute)
	closed := a.CloseIdle()
	if len(closed) != 1 || closed[0].Client != "a" {
		t.Fatalf("CloseIdle closed %+v, want just client a", closed)
	}
	if got := closed[0].Session.Ops; len(got) != 1 || got[0].Key != 1 {
		t.Fatalf("closed session ops: %+v", got)
	}
	if a.OpenCount() != 1 {
		t.Fatalf("open = %d after close", a.OpenCount())
	}

	// A returning client starts a fresh session.
	ap2 := a.Append(Event{ClientID: "a", User: "ua", SQL: "s1"}, 1, 4)
	if ap2.SessionID == apA.SessionID || ap2.Pos != 0 {
		t.Fatalf("returning client reused closed session: %+v", ap2)
	}

	rest := a.CloseAll()
	if len(rest) != 2 || a.OpenCount() != 0 {
		t.Fatalf("CloseAll returned %d, open %d", len(rest), a.OpenCount())
	}
	opened, closedN := a.Counts()
	if opened != 3 || closedN != 3 {
		t.Fatalf("counts opened=%d closed=%d, want 3/3", opened, closedN)
	}
}

func TestAssemblerWindowSnapshot(t *testing.T) {
	a := NewAssembler(time.Minute, nil)
	var ap Appended
	for k := 1; k <= 6; k++ {
		ap = a.Append(Event{ClientID: "c", SQL: "s"}, k, 3)
	}
	if ap.Pos != 5 {
		t.Fatalf("pos = %d", ap.Pos)
	}
	want := []int{4, 5, 6}
	if len(ap.Keys) != 3 || ap.Keys[0] != want[0] || ap.Keys[1] != want[1] || ap.Keys[2] != want[2] {
		t.Fatalf("window snapshot %v, want %v", ap.Keys, want)
	}
}

func TestAssemblerRollback(t *testing.T) {
	a := NewAssembler(time.Minute, nil)
	a.Append(Event{ClientID: "c", SQL: "s"}, 1, 0)
	a.Append(Event{ClientID: "c", SQL: "s"}, 2, 0)
	ap := a.Append(Event{ClientID: "c", SQL: "s"}, 3, 0)

	if a.Rollback("c", ap.SessionID, ap.Pos-1, 0, 0) {
		t.Fatal("rollback of a non-last position must fail")
	}
	if a.Rollback("c", "c#0", ap.Pos, 0, 0) {
		t.Fatal("rollback naming another session must fail")
	}
	if !a.Rollback("c", ap.SessionID, ap.Pos, 0, 0) {
		t.Fatal("rollback of the last position must succeed")
	}
	if next := a.Append(Event{ClientID: "c", SQL: "s"}, 4, 0); next.Pos != 2 {
		t.Fatalf("after rollback next pos = %d, want 2", next.Pos)
	}

	// Rolling back the only operation removes the session entirely.
	first := a.Append(Event{ClientID: "d", SQL: "s"}, 1, 0)
	if !a.Rollback("d", first.SessionID, first.Pos, 0, 0) {
		t.Fatal("rollback of sole op must succeed")
	}
	if a.OpenCount() != 1 {
		t.Fatalf("open = %d, want 1 (d removed)", a.OpenCount())
	}
}

// TestAssemblerRollbackUndoesDedupeMark: a rolled-back sequenced
// operation takes its (epoch, seq) mark with it, so the sender's retry
// of the same event is appended, not acknowledged as a duplicate and
// lost. The first regression cases of the fault layer (ROADMAP).
func TestAssemblerRollbackUndoesDedupeMark(t *testing.T) {
	ev := func(epoch, seq int64) Event {
		return Event{ClientID: "c", SQL: "s", Epoch: epoch, Seq: seq}
	}

	// The four-step repro: append 1, append 2, roll 2 back, redeliver 2.
	a := NewAssembler(time.Minute, nil)
	a.Append(ev(1, 1), 1, 0)
	ap := a.Append(ev(1, 2), 2, 0)
	if !a.Rollback("c", ap.SessionID, ap.Pos, 1, 2) {
		t.Fatal("tail rollback refused")
	}
	if re := a.Append(ev(1, 2), 2, 0); re.Dup || re.Pos != 1 {
		t.Fatalf("retry after rollback = %+v, want a fresh append at pos 1", re)
	}
	if re := a.Append(ev(1, 2), 2, 0); !re.Dup {
		t.Fatal("second delivery of an absorbed event must still be a duplicate")
	}

	// A run of three rolled back newest-first, as commitBatch does: each
	// step re-exposes exactly the event it undid.
	a = NewAssembler(time.Minute, nil)
	id := a.Append(ev(1, 1), 1, 0).SessionID
	for seq := int64(2); seq <= 4; seq++ {
		a.Append(ev(1, seq), int(seq), 0)
	}
	for seq := int64(4); seq >= 2; seq-- {
		if !a.Rollback("c", id, int(seq)-1, 1, seq) {
			t.Fatalf("rollback of seq %d refused", seq)
		}
	}
	if re := a.Append(ev(1, 1), 1, 0); !re.Dup {
		t.Fatal("the surviving op's redelivery must stay a duplicate")
	}
	for seq := int64(2); seq <= 4; seq++ {
		if re := a.Append(ev(1, seq), int(seq), 0); re.Dup || re.Pos != int(seq)-1 {
			t.Fatalf("redelivered seq %d = %+v, want fresh at pos %d", seq, re, seq-1)
		}
	}

	// An operation that opened a new epoch: undoing it leaves (2, 0), so
	// epoch 1 stays fenced off and (2, 1) is fresh again.
	a = NewAssembler(time.Minute, nil)
	a.Append(ev(1, 1), 1, 0)
	a.Append(ev(1, 2), 2, 0)
	ap = a.Append(ev(2, 1), 3, 0)
	if !a.Rollback("c", ap.SessionID, ap.Pos, 2, 1) {
		t.Fatal("rollback of the epoch-opening op refused")
	}
	if re := a.Append(ev(1, 2), 2, 0); !re.Dup {
		t.Fatal("an older epoch's redelivery must stay a duplicate")
	}
	if re := a.Append(ev(2, 1), 3, 0); re.Dup || re.Pos != 2 {
		t.Fatalf("retry of the epoch-opening op = %+v, want fresh at pos 2", re)
	}

	// An unsequenced rollback (and an rb record from before the fields
	// were logged) leaves the mark alone.
	a = NewAssembler(time.Minute, nil)
	a.Append(ev(1, 1), 1, 0)
	ap = a.Append(Event{ClientID: "c", SQL: "s"}, 2, 0)
	if !a.Rollback("c", ap.SessionID, ap.Pos, 0, 0) {
		t.Fatal("unsequenced rollback refused")
	}
	if re := a.Append(ev(1, 1), 1, 0); !re.Dup {
		t.Fatal("unsequenced rollback moved the dedupe mark")
	}
}

// blockingRanker parks scoring until released, to fill the queue
// deterministically.
type blockingRanker struct {
	started chan struct{}
	release chan struct{}
}

func (r *blockingRanker) RankBatch(dst []int, contexts [][]int, keys []int) []int {
	r.started <- struct{}{}
	<-r.release
	for range keys {
		dst = append(dst, 1)
	}
	return dst
}

func TestEngineBackpressure(t *testing.T) {
	r := &blockingRanker{started: make(chan struct{}, 16), release: make(chan struct{})}
	var mu sync.Mutex
	var results []Result
	e := NewEngine(r, 1, 1, 2, 1, func(res Result) {
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
	})
	job := func(pos int) Job { return Job{Client: "c", SessionID: "s", Keys: []int{1, 2}, Pos: pos} }

	if err := e.Submit(0, job(0)); err != nil {
		t.Fatal(err)
	}
	<-r.started // worker holds job 0
	if err := e.Submit(0, job(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(0, job(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(0, job(3)); err != ErrBusy {
		t.Fatalf("submit into full queue: %v, want ErrBusy", err)
	}

	close(r.release)
	e.Drain()
	scored, rejected := e.Counts()
	if scored != 3 || rejected != 1 {
		t.Fatalf("scored=%d rejected=%d, want 3/1", scored, rejected)
	}
	mu.Lock()
	n := len(results)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("results = %d, want 3", n)
	}

	e.Stop()
	if err := e.Submit(0, job(4)); err != ErrStopped {
		t.Fatalf("submit after stop: %v, want ErrStopped", err)
	}
}

// countingRanker flags key 0 as anomalous and counts ranked operations
// (not fused calls), so micro-batching cannot hide dropped jobs.
type countingRanker struct{ calls atomic.Int64 }

func (r *countingRanker) RankBatch(dst []int, contexts [][]int, keys []int) []int {
	for _, key := range keys {
		r.calls.Add(1)
		if key == 0 {
			dst = append(dst, 99)
		} else {
			dst = append(dst, 1)
		}
	}
	return dst
}

func TestEngineMicroBatchScoresEverything(t *testing.T) {
	r := &countingRanker{}
	e := NewEngine(r, 1, 3, 64, 8, nil)
	for i := 0; i < 50; i++ {
		if err := e.Submit(0, Job{Keys: []int{1, 2, 3}, Pos: i}); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if got := r.calls.Load(); got != 50 {
		t.Fatalf("ranked %d jobs, want 50", got)
	}
	e.Stop()
}

func TestAlertStoreLifecycle(t *testing.T) {
	clk := newFakeClock()
	st := newAlertStore(clk.Now, -1, 0)

	res := Result{Job: Job{Client: "c", User: "u", SessionID: "sess-1", Pos: 6, SQL: "BAD"}, Rank: 99}
	if !st.flag(res, "u") {
		t.Fatal("first flag must be absorbed")
	}
	res.Pos = 8
	st.flag(res, "u")
	res.Pos = 6 // duplicate
	st.flag(res, "u")

	alerts := st.list("")
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Final || a.Status != StatusOpen {
		t.Fatalf("premature final/status: %+v", a)
	}
	if len(a.Positions) != 2 || a.Positions[0] != 6 || a.Positions[1] != 8 {
		t.Fatalf("positions %v, want [6 8]", a.Positions)
	}

	// Resolving an open-session alert is refused.
	if _, err := st.resolve(a.ID, StatusConfirmed); err != ErrSessionOpen {
		t.Fatalf("resolve before close: %v, want ErrSessionOpen", err)
	}

	// Close-out confirms position 6 and adds 10.
	fa := st.finalize(closedSession("sess-1", "", "", "", "", "", "", "BAD", "", "", "", "WORSE"), "c", mockCloseout)
	if fa == nil || !fa.Final {
		t.Fatal("finalize did not finalize")
	}
	if len(fa.Statements) != 3 || fa.Statements[2] != "WORSE" {
		t.Fatalf("statements %q, want the close-out position's text from the session", fa.Statements)
	}
	if _, err := st.resolve(fa.ID, StatusConfirmed); err != nil {
		t.Fatal(err)
	}
	if _, err := st.resolve(fa.ID, StatusConfirmed); err != ErrNoAlert {
		t.Fatalf("double resolve: %v, want ErrNoAlert", err)
	}

	// Late flags for a finalized session are dropped.
	if st.flag(Result{Job: Job{SessionID: "sess-1", Pos: 3}, Rank: 99}, "u") {
		t.Fatal("late flag on finalized session must be dropped")
	}

	// A session that closes clean without prior flags yields no alert.
	if a := st.finalize(closedSession("sess-2"), "c", nil); a != nil {
		t.Fatalf("clean close produced alert %+v", a)
	}
}

func TestRingSetEviction(t *testing.T) {
	r := newRingSet(2)
	r.add("a")
	r.add("b")
	r.add("c") // evicts a
	if r.has("a") || !r.has("b") || !r.has("c") {
		t.Fatal("FIFO eviction broken")
	}
	r.add("b") // already present, no eviction
	if !r.has("c") {
		t.Fatal("duplicate add must not evict")
	}
}

func TestServiceMidSessionFlagAndCloseout(t *testing.T) {
	u := testUCAD(t)
	clk := newFakeClock()
	svc := NewService(u, Config{
		Workers:     2,
		QueueSize:   64,
		Batch:       4,
		IdleTimeout: 10 * time.Minute,
		Clock:       clk.Now,
	})

	// Two clients stream; the attacker injects the A1-style read at
	// position 6 of a 12-op session.
	for pos := 0; pos < 12; pos++ {
		if err := svc.Ingest(Event{ClientID: "victim", User: "app", SQL: normalStatement(pos)}); err != nil {
			t.Fatal(err)
		}
		sql := normalStatement(pos)
		if pos == 6 {
			sql = anomalySQL
		}
		if err := svc.Ingest(Event{ClientID: "attacker", User: "eve", SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Drain()

	// The flag fired while both sessions are still open.
	if n := svc.Stats().SessionsOpen; n != 2 {
		t.Fatalf("sessions open = %d, want 2", n)
	}
	alerts := svc.Alerts(StatusOpen)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly the attacker's", alerts)
	}
	a := alerts[0]
	if a.Client != "attacker" || a.Final || len(a.Positions) != 1 || a.Positions[0] != 6 {
		t.Fatalf("mid-session alert %+v, want open attacker alert at position 6", a)
	}
	if a.Statements[0] != anomalySQL {
		t.Fatalf("alert statement %q", a.Statements[0])
	}

	// Idle close-out: both sessions pass through full-session detection.
	clk.Advance(11 * time.Minute)
	if n := svc.CloseIdleNow(); n != 2 {
		t.Fatalf("closed %d, want 2", n)
	}
	st := svc.Stats()
	if st.SessionsOpen != 0 || st.SessionsProcessed != 2 || st.SessionsFlagged != 1 {
		t.Fatalf("post-close stats %+v", st)
	}
	if st.VerifiedPool != 1 {
		t.Fatalf("verified pool = %d, want 1 (victim only)", st.VerifiedPool)
	}

	alerts = svc.Alerts("")
	if len(alerts) != 1 || !alerts[0].Final {
		t.Fatalf("final alerts %+v", alerts)
	}

	// Expert confirms: the anomaly never joins the training pool.
	if err := svc.Resolve(alerts[0].ID, StatusConfirmed); err != nil {
		t.Fatal(err)
	}
	if len(svc.Alerts(StatusOpen)) != 0 {
		t.Fatal("pending queue not drained after confirm")
	}
	svc.Stop()
}

func TestServiceAutoRetrainOnVerifiedPool(t *testing.T) {
	u := testUCAD(t)
	clk := newFakeClock()
	svc := NewService(u, Config{
		Workers:       1,
		QueueSize:     64,
		IdleTimeout:   time.Minute,
		RetrainAfter:  2,
		RetrainEpochs: 1,
		Clock:         clk.Now,
	})
	for c := 0; c < 3; c++ {
		for pos := 0; pos < 6; pos++ {
			if err := svc.Ingest(Event{ClientID: fmt.Sprintf("c%d", c), User: "app", SQL: normalStatement(pos)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc.Drain()
	clk.Advance(2 * time.Minute)
	svc.CloseIdleNow()
	svc.Stop() // waits for the background fine-tune

	st := svc.Stats()
	if st.Retrains < 1 {
		t.Fatalf("retrains = %d, want >= 1", st.Retrains)
	}
	if st.VerifiedPool >= 3 {
		t.Fatalf("verified pool = %d, want drained by retrain", st.VerifiedPool)
	}
}

// TestServiceVerifiedPoolLoop pins Figure 5's feedback loop end to end:
// close-out verdicts count processed and flagged sessions, normal
// sessions join the verified pool, a false alarm rejoins it and a
// confirmed anomaly does not, and a fine-tune round absorbs and clears
// the pool while feeding the training families; an empty pool runs no
// round.
func TestServiceVerifiedPoolLoop(t *testing.T) {
	clk := newFakeClock()
	svc := NewService(testUCAD(t), Config{
		Workers:       1,
		QueueSize:     64,
		IdleTimeout:   time.Minute,
		RetrainEpochs: 2,
		Clock:         clk.Now,
	})
	defer svc.Stop()
	for c := 0; c < 5; c++ {
		for pos := 0; pos < 6; pos++ {
			sql := normalStatement(pos)
			if c >= 3 && pos == 4 {
				sql = anomalySQL
			}
			if err := svc.Ingest(Event{ClientID: fmt.Sprintf("c%d", c), User: "app", SQL: sql}); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc.Drain()
	clk.Advance(2 * time.Minute)
	svc.CloseIdleNow()
	if st := svc.Stats(); st.SessionsProcessed != 5 || st.SessionsFlagged != 2 || st.VerifiedPool != 3 {
		t.Fatalf("post-close stats %+v, want 5 processed, 2 flagged, pool 3", st)
	}

	alerts := svc.Alerts(StatusOpen)
	if len(alerts) != 2 {
		t.Fatalf("open alerts %+v, want 2", alerts)
	}
	if err := svc.Resolve(alerts[0].ID, StatusFalseAlarm); err != nil {
		t.Fatal(err)
	}
	if err := svc.Resolve(alerts[1].ID, StatusConfirmed); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().VerifiedPool; got != 4 {
		t.Fatalf("verified pool %d after one false alarm and one confirmation, want 4", got)
	}

	m := svc.metrics
	epochs := m.trainEpochs.Value()
	absorbed, res := svc.retrain()
	if absorbed != 4 || svc.Stats().VerifiedPool != 0 {
		t.Fatalf("round absorbed %d, pool %d after; want 4 then 0", absorbed, svc.Stats().VerifiedPool)
	}
	if got := m.trainEpochs.Value() - epochs; got != 2 || len(res.EpochLoss) != 2 {
		t.Fatalf("epochs counted %d, run %d; want RetrainEpochs = 2", got, len(res.EpochLoss))
	}
	if got, want := m.trainEpochLoss.Value(), res.EpochLoss[1]; got != want {
		t.Fatalf("epoch-loss gauge %v, want the round's last epoch loss %v", got, want)
	}
	if m.trainWindowsPerSec.Value() <= 0 || m.retrainSeconds.Count() != 1 {
		t.Fatalf("windows/s %v, retrain rounds timed %d; want > 0 and 1",
			m.trainWindowsPerSec.Value(), m.retrainSeconds.Count())
	}

	if absorbed, _ := svc.retrain(); absorbed != 0 || m.retrainSeconds.Count() != 1 || m.trainEpochs.Value()-epochs != 2 {
		t.Fatal("an empty pool ran a fine-tune round")
	}
}

func TestServiceInvalidAndStopped(t *testing.T) {
	u := testUCAD(t)
	svc := NewService(u, Config{Workers: 1, QueueSize: 8})
	if err := svc.Ingest(Event{ClientID: "c"}); err != ErrInvalid {
		t.Fatalf("empty sql: %v, want ErrInvalid", err)
	}
	if err := svc.Resolve(1, "bogus"); err != ErrInvalid {
		t.Fatalf("bogus verdict: %v, want ErrInvalid", err)
	}
	svc.Stop()
	if err := svc.Ingest(Event{ClientID: "c", SQL: "SELECT 1"}); err != ErrStopped {
		t.Fatalf("ingest after stop: %v, want ErrStopped", err)
	}
	svc.Stop() // idempotent
}
