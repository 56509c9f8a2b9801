package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/workload"
)

// The end-to-end test re-executes this test binary as the real
// ucad-serve process: TestMain detects the child marker, rewrites
// os.Args from the env, and runs main(). The parent can then kill -9 a
// genuine OS process and watch a genuine restart recover it.
const (
	childEnv     = "UCAD_SERVE_E2E_CHILD"
	childArgsEnv = "UCAD_SERVE_E2E_ARGS"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Args = append([]string{os.Args[0]}, strings.Split(os.Getenv(childArgsEnv), "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// trainOn fits a tiny detector to n sessions drawn from a source — each
// tenant of the e2e gets a model of its own scenario's vocabulary.
func trainOn(t *testing.T, src workload.SessionSource, n int) *core.UCAD {
	t.Helper()
	var sessions []*session.Session
	for i := 0; i < n; i++ {
		ss := src.NextSession()
		s := &session.Session{ID: ss.ClientID, User: ss.User, Addr: ss.Addr}
		for _, sql := range ss.Statements {
			s.Ops = append(s.Ops, session.Operation{SQL: sql})
		}
		sessions = append(sessions, s)
	}
	cfg := core.DefaultConfig()
	cfg.SkipClean = true
	cfg.Model.Hidden = 4
	cfg.Model.Heads = 2
	cfg.Model.Blocks = 1
	cfg.Model.Window = 8
	cfg.Model.Epochs = 1
	cfg.Model.Dropout = 0
	cfg.Model.MinContext = 2
	u, err := core.Train(cfg, sessions, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func saveModel(t *testing.T, u *core.UCAD, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := u.Save(f); err != nil {
		t.Fatal(err)
	}
}

// child is one ucad-serve process run from the test binary.
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

// lockedWriter serializes the child's stdout/stderr into one buffer.
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

func waitHealthy(t *testing.T, c *child, base string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server never became healthy; child output:\n%s", c.log())
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

type tenantInfo struct {
	ID          string `json:"id"`
	Replica     bool   `json:"replica"`
	Recovered   int    `json:"recovered_sessions"`
	CleanSeal   bool   `json:"clean_seal"`
	WALReplayed int    `json:"wal_records_replayed"`
	Stats       struct {
		EventsAccepted int64 `json:"events_accepted"`
	} `json:"stats"`
}

func listTenants(t *testing.T, base string) map[string]tenantInfo {
	t.Helper()
	resp, err := http.Get(base + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var infos []tenantInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("tenant list: %v: %s", err, body)
	}
	out := map[string]tenantInfo{}
	for _, in := range infos {
		out[in.ID] = in
	}
	return out
}

// ledger is the sender's view of one tenant's traffic: per client, every
// statement put on the wire in order, and how many of them a 202 covers.
type ledger struct {
	sent  map[string][]string
	acked map[string]int
}

// TestE2EMultiTenantCrashRestart boots one real ucad-serve process with
// three tenants — Scenario-I, Scenario-II, and a wider Scenario-II
// grammar — ingests interleaved traffic across all three, first as
// single events and then as a stream of 32-event batches, kill -9s the
// process in the middle of that stream, restarts it on the same data
// directory, and verifies each tenant recovered its own sessions —
// every event of every acknowledged request, nothing that was never
// sent — with its own metric labels and kept serving. A final SIGTERM
// restart confirms the clean-seal path through the real binary.
func TestE2EMultiTenantCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	root := t.TempDir()

	// One model per tenant, each trained on its own scenario so every
	// tenant has a vocabulary of its own.
	s1Train := workload.NewScenarioSource(workload.ScenarioI(), 101, 0)
	s2Train := workload.NewScenarioSource(workload.ScenarioII(0.5), 102, 0)
	s3Train := workload.NewScenarioSource(workload.ScenarioII(1), 103, 0)
	for id, src := range map[string]workload.SessionSource{
		"s1": s1Train, "s2": s2Train, "s3": s3Train,
	} {
		saveModel(t, trainOn(t, src, 12), filepath.Join(root, id+".model"))
	}
	specs := []map[string]string{
		{"id": "s1", "model": filepath.Join(root, "s1.model")},
		{"id": "s2", "model": filepath.Join(root, "s2.model")},
		{"id": "s3", "model": filepath.Join(root, "s3.model")},
	}
	sb, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	tenantsFile := filepath.Join(root, "tenants.json")
	if err := os.WriteFile(tenantsFile, sb, 0o644); err != nil {
		t.Fatal(err)
	}

	dataDir := filepath.Join(root, "data")
	addr := freeAddr(t)
	base := "http://" + addr
	args := []string{
		"-tenants", tenantsFile,
		"-data-dir", dataDir,
		"-addr", addr,
		"-fsync", "always",
		"-workers", "2",
		"-queue", "4096",
		// Sessions must stay open across the crash: no idle close-outs.
		"-idle-timeout", "1h",
		"-snapshot-interval", "0",
	}

	c1 := startChild(t, args...)
	defer c1.cmd.Process.Kill()
	waitHealthy(t, c1, base)

	// Interleave the three tenants' live traffic into one stream, the
	// shape a shared frontend would produce.
	gen := workload.NewMultiGen(99,
		workload.TenantStream{Tenant: "s1", Source: workload.NewScenarioSource(workload.ScenarioI(), 1, 0)},
		workload.TenantStream{Tenant: "s2", Source: workload.NewScenarioSource(workload.ScenarioII(0.5), 2, 0)},
		workload.TenantStream{Tenant: "s3", Source: workload.NewScenarioSource(workload.ScenarioII(1), 7, 0.2)},
	)
	events := make([]workload.TenantEvent, 300)
	for i := range events {
		events[i] = gen.Next()
	}
	ledgers := map[string]*ledger{}
	for _, id := range []string{"s1", "s2", "s3"} {
		ledgers[id] = &ledger{sent: map[string][]string{}, acked: map[string]int{}}
	}
	wire := func(ev workload.TenantEvent) map[string]string {
		return map[string]string{
			"tenant": ev.Tenant, "client_id": ev.ClientID, "user": ev.User, "addr": ev.Addr, "sql": ev.SQL,
		}
	}
	for _, ev := range events {
		b, _ := json.Marshal(wire(ev))
		resp, err := http.Post(base+"/v1/events", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s = %d; child output:\n%s", ev.Tenant, resp.StatusCode, c1.log())
		}
		l := ledgers[ev.Tenant]
		l.sent[ev.ClientID] = append(l.sent[ev.ClientID], ev.SQL)
		l.acked[ev.ClientID]++
	}
	for id, l := range ledgers {
		if len(l.sent) == 0 {
			t.Fatalf("stream never reached tenant %s", id)
		}
	}

	// Then 32-event batches, back to back, until the server dies under
	// them: a request is one commit group, acknowledged only after every
	// WAL stream it touched was fsynced.
	var ackedBatches atomic.Int64
	streamErr := make(chan error, 1)
	go func() {
		for {
			batch := make([]workload.TenantEvent, 32)
			for i := range batch {
				batch[i] = gen.Next()
			}
			body := make([]map[string]string, len(batch))
			for i, ev := range batch {
				body[i] = wire(ev)
				l := ledgers[ev.Tenant]
				l.sent[ev.ClientID] = append(l.sent[ev.ClientID], ev.SQL)
			}
			b, _ := json.Marshal(body)
			resp, err := http.Post(base+"/v1/events", "application/json", bytes.NewReader(b))
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err != nil {
				streamErr <- nil // the kill: this batch was never acknowledged
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				streamErr <- fmt.Errorf("batch ingest = %d", resp.StatusCode)
				return
			}
			for _, ev := range batch {
				ledgers[ev.Tenant].acked[ev.ClientID]++
			}
			ackedBatches.Add(1)
		}
	}()
	for deadline := time.Now().Add(20 * time.Second); ackedBatches.Load() < 4; {
		if time.Now().After(deadline) {
			t.Fatalf("batch stream stalled at %d acknowledged; child output:\n%s", ackedBatches.Load(), c1.log())
		}
		time.Sleep(time.Millisecond)
	}

	// kill -9 mid-stream: with fsync=always every acknowledged event is
	// already in the owning tenant's WAL.
	if err := c1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c1.cmd.Wait()
	if err := <-streamErr; err != nil {
		t.Fatalf("%v; child output:\n%s", err, c1.log())
	}

	// Restart on the same directory: the tenants file names the same
	// specs; each tenant replays its own WAL.
	c2 := startChild(t, args...)
	defer c2.cmd.Process.Kill()
	waitHealthy(t, c2, base)

	infos := listTenants(t, base)
	if len(infos) != 3 {
		t.Fatalf("restart lists %d tenants: %+v", len(infos), infos)
	}
	for id, l := range ledgers {
		in, ok := infos[id]
		if !ok {
			t.Fatalf("tenant %s missing after restart: %+v", id, infos)
		}
		if in.CleanSeal {
			t.Fatalf("tenant %s reports a clean seal after kill -9", id)
		}
		// Every acknowledged event is back at its position, and a session
		// holds nothing beyond what its client sent, in the order it was
		// sent (cross-tenant leakage or a phantom record otherwise). The
		// batch in flight at the kill may be there in part: never
		// acknowledged, so not required, but a whole-record prefix.
		restored, err := fetchSessions(base, id)
		if err != nil {
			t.Fatal(err)
		}
		if in.Recovered != len(restored) {
			t.Fatalf("tenant %s reports %d recovered sessions, serves %d", id, in.Recovered, len(restored))
		}
		ackedEvents := 0
		for client, n := range l.acked {
			ackedEvents += n
			if len(restored[client]) < n {
				t.Fatalf("tenant %s client %s: %d events acknowledged, %d restored", id, client, n, len(restored[client]))
			}
		}
		for client, ops := range restored {
			sent := l.sent[client]
			if len(ops) > len(sent) || !reflect.DeepEqual(ops, sent[:len(ops)]) {
				t.Fatalf("tenant %s client %s restored %d ops that are no prefix of the %d sent", id, client, len(ops), len(sent))
			}
		}
		if in.WALReplayed < ackedEvents {
			t.Fatalf("tenant %s replayed %d WAL records for %d acknowledged events", id, in.WALReplayed, ackedEvents)
		}
		// Each tenant's durable state lives in its own directory.
		for _, sub := range []string{"wal", "checkpoints", "tenant.json"} {
			if _, err := os.Stat(filepath.Join(dataDir, "tenants", id, sub)); err != nil {
				t.Fatalf("tenant %s: %v", id, err)
			}
		}
	}

	// The recovered pipelines keep serving: one more event per tenant
	// onto a recovered client id.
	for _, ev := range []workload.TenantEvent{events[0], events[1], events[2]} {
		b, _ := json.Marshal(map[string]string{
			"tenant": ev.Tenant, "client_id": ev.ClientID, "user": ev.User, "sql": ev.SQL,
		})
		resp, err := http.Post(base+"/v1/events", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post-restart ingest %s = %d", ev.Tenant, resp.StatusCode)
		}
	}

	// The shared exposition carries every tenant's labelled series —
	// including the per-tenant recovery gauges.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	checkMetricDocs(t, string(mbody))
	for _, id := range []string{"s1", "s2", "s3"} {
		for _, series := range []string{
			fmt.Sprintf(`ucad_wal_recovered_sessions{tenant=%q} %d`, id, infos[id].Recovered),
			fmt.Sprintf(`ucad_events_accepted_total{tenant=%q}`, id),
		} {
			if !strings.Contains(string(mbody), series) {
				t.Fatalf("/metrics missing %q", series)
			}
		}
	}
	// Routing misses answer the structured 404 end to end.
	gresp, err := http.Post(base+"/v1/events", "application/json",
		strings.NewReader(`{"tenant":"ghost","client_id":"c","user":"u","sql":"SELECT 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	gbody, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound || !strings.Contains(string(gbody), "unknown_tenant") {
		t.Fatalf("ghost tenant = %d: %s", gresp.StatusCode, gbody)
	}

	// Graceful shutdown seals every tenant's log; the next boot reports
	// clean seals with the same per-tenant session counts.
	if err := c2.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := c2.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v; output:\n%s", err, c2.log())
	}
	c3 := startChild(t, args...)
	defer c3.cmd.Process.Kill()
	waitHealthy(t, c3, base)
	for _, id := range []string{"s1", "s2", "s3"} {
		in := listTenants(t, base)[id]
		if !in.CleanSeal || in.Recovered != infos[id].Recovered {
			t.Fatalf("tenant %s after clean shutdown: %+v, want clean seal and %d sessions",
				id, in, infos[id].Recovered)
		}
	}
	c3.cmd.Process.Signal(os.Interrupt)
	c3.cmd.Wait()
}
