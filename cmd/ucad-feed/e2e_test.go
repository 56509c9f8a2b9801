package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/feed"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/tenant"
)

// The end-to-end test re-executes this test binary as the real
// ucad-feed process, so the parent can kill -9 a genuine OS process
// mid-stream and watch a genuine restart resume from the offset
// checkpoint.
const (
	childEnv     = "UCAD_FEED_E2E_CHILD"
	childArgsEnv = "UCAD_FEED_E2E_ARGS"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Args = append([]string{os.Args[0]}, strings.Split(os.Getenv(childArgsEnv), "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// appStatements is the application workload as its audit log records
// it. Literals vary per call and normalize away.
var appStatements = []func(i int) string{
	func(i int) string { return fmt.Sprintf("SELECT * FROM videos WHERE vid = %d", i) },
	func(i int) string { return fmt.Sprintf("SELECT * FROM users WHERE uid = %d", i) },
	func(i int) string { return fmt.Sprintf("INSERT INTO stats (vid, views) VALUES (%d, %d)", i, i+1) },
	func(i int) string { return fmt.Sprintf("UPDATE stats SET views = %d WHERE vid = %d", i+2, i) },
	func(i int) string { return fmt.Sprintf("SELECT views FROM stats WHERE vid = %d", i) },
	func(i int) string { return fmt.Sprintf("DELETE FROM stats WHERE views < %d", i) },
}

// anomalySQL reads a confidential table no training session ever
// touched: out-of-vocabulary for the model.
const anomalySQL = "SELECT * FROM credit_cards WHERE uid = 7"

func appStatement(pos int) string {
	return appStatements[pos%len(appStatements)](pos)
}

// trainApp fits the deterministic test detector: TopP = Vocab-1 means
// every in-vocabulary statement passes and only OOV statements flag.
func trainApp(t *testing.T) *core.UCAD {
	t.Helper()
	var sessions []*session.Session
	for i := 0; i < 16; i++ {
		s := &session.Session{ID: fmt.Sprintf("train-%d", i), User: "app"}
		for p := 0; p < 12; p++ {
			s.Ops = append(s.Ops, session.Operation{SQL: appStatement(i + p)})
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
	cfg.Model.TopP = len(appStatements)
	u, err := core.Train(cfg, sessions, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Vocab.Size() != len(appStatements)+1 {
		t.Fatalf("vocab size %d, want %d", u.Vocab.Size(), len(appStatements)+1)
	}
	return u
}

// fakeClock drives the server's idle close-out deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
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

// child is one ucad-feed process run from the test binary.
type child struct {
	cmd *exec.Cmd
	out *bytes.Buffer
	mu  sync.Mutex
}

func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	c := &child{cmd: exec.Command(os.Args[0]), out: &bytes.Buffer{}}
	c.cmd.Env = append(os.Environ(), childEnv+"=1", childArgsEnv+"="+strings.Join(args, "\n"))
	c.cmd.Stdout = lockedWriter{c}
	c.cmd.Stderr = lockedWriter{c}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

type lockedWriter struct{ c *child }

func (w lockedWriter) Write(p []byte) (int, error) {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	return w.c.out.Write(p)
}

func (c *child) log() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.String()
}

func (c *child) kill9(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait()
}

// TestFeedE2EKillResume drives the full front door with real processes:
// the application's statements are appended to a JSONL audit file, each
// fsynced before the next, a real ucad-feed process tails the file into a
// live serving endpoint, gets kill -9'd mid-stream, restarts from its
// offset checkpoint, and every session comes out scored exactly once —
// including the anomalous one, which must raise an alert.
func TestFeedE2EKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e")
	}
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.jsonl")
	offsetDir := filepath.Join(dir, "offsets")

	auditFile, err := os.OpenFile(auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer auditFile.Close()
	// logStatement appends one statement of client c's connection to the
	// audit file as a session.Operation JSON line, on stable storage
	// before the next statement is written.
	logStatement := func(c int, sql string) {
		t.Helper()
		op := session.Operation{
			Time:      time.Now(),
			User:      "app",
			Addr:      fmt.Sprintf("10.0.0.%d", c+1),
			SessionID: fmt.Sprintf("conn-%d", c),
			SQL:       sql,
		}
		if err := session.WriteLog(auditFile, []session.Operation{op}); err != nil {
			t.Fatal(err)
		}
		if err := auditFile.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// Live serving endpoint on a real listener.
	clk := &fakeClock{now: time.Now()}
	scfg := serve.DefaultConfig()
	scfg.Workers = 2
	scfg.SweepEvery = 0
	scfg.Clock = clk.Now
	reg := tenant.New(tenant.Options{Serve: scfg})
	defer reg.Close(context.Background())
	tn, err := reg.CreateFromModel(tenant.Spec{}, trainApp(t))
	if err != nil {
		t.Fatal(err)
	}
	svc := tn.Service()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: reg.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	feedArgs := []string{
		"-source", auditPath,
		"-serve-url", base,
		"-offset-dir", offsetDir,
		"-batch", "4",
		"-flush-interval", "20ms",
		"-poll", "5ms",
		"-session-idle", "10m",
	}
	feeder := startChild(t, feedArgs...)

	waitStats := func(what string, cond func(serve.Stats) bool) serve.Stats {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := svc.Stats()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: stats %+v\nfeeder log:\n%s", what, st, feeder.log())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Phase 1: three clients issue half their traffic.
	const clients, phase1Ops, phase2Ops = 3, 6, 6
	total := 0
	for p := 0; p < phase1Ops; p++ {
		for c := 0; c < clients; c++ {
			logStatement(c, appStatement(c+p))
			total++
		}
	}
	waitStats("phase 1 ingest", func(st serve.Stats) bool {
		return st.EventsAccepted >= int64(total-4) // most of it delivered
	})

	// kill -9 mid-stream: whatever was delivered but not checkpointed
	// will be replayed by the restart.
	feeder.kill9(t)
	name, err := checkpointName(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp, ok, err := feed.LoadCheckpoint(filepath.Join(offsetDir, name)); err != nil || !ok || cp.Pos.File.Offset == 0 {
		t.Fatalf("no offset checkpoint on disk after kill: ok=%v err=%v pos=%+v", ok, err, cp.Pos)
	}

	// Phase 2: traffic continues while the feeder is down; client 1
	// slips in the confidential-table read.
	for p := 0; p < phase2Ops; p++ {
		for c := 0; c < clients; c++ {
			sql := appStatement(c + phase1Ops + p)
			if c == 1 && p == 3 {
				sql = anomalySQL
			}
			logStatement(c, sql)
			total++
		}
	}

	// Restart: resumes from the checkpoint, replays the uncommitted
	// suffix (deduplicated server-side), then catches up.
	feeder = startChild(t, feedArgs...)
	defer feeder.kill9(t)
	st := waitStats("catch-up after restart", func(st serve.Stats) bool {
		return st.EventsAccepted >= int64(total)
	})
	if st.EventsAccepted != int64(total) {
		t.Fatalf("EventsAccepted = %d, want exactly %d (lost or duplicated operations)", st.EventsAccepted, total)
	}
	// Let any straggling redeliveries land, then re-check nothing
	// double-counted.
	time.Sleep(200 * time.Millisecond)
	st = svc.Stats()
	if st.EventsAccepted != int64(total) {
		t.Fatalf("EventsAccepted drifted to %d after catch-up, want %d", st.EventsAccepted, total)
	}
	if st.SessionsOpen != clients {
		t.Fatalf("SessionsOpen = %d, want %d", st.SessionsOpen, clients)
	}
	if st.UnknownKeys != 1 {
		t.Fatalf("UnknownKeys = %d, want 1 (the confidential read)", st.UnknownKeys)
	}

	// Close out every session and check each was scored exactly once.
	svc.Drain()
	clk.Advance(time.Hour)
	svc.CloseIdleNow()
	svc.Drain()
	st = svc.Stats()
	if st.SessionsProcessed != clients {
		t.Fatalf("SessionsProcessed = %d, want %d (zero duplicate or lost sessions)", st.SessionsProcessed, clients)
	}
	if st.SessionsFlagged != 1 {
		t.Fatalf("SessionsFlagged = %d, want 1", st.SessionsFlagged)
	}
	alerts := svc.Alerts("open")
	if len(alerts) == 0 {
		t.Fatalf("no alert for the anomalous session; stats %+v\nfeeder log:\n%s", st, feeder.log())
	}
	found := false
	for _, a := range alerts {
		for _, stmt := range a.Statements {
			if stmt == anomalySQL {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("alert does not contain the anomalous statement: %+v", alerts)
	}
}
