package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/feed"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/workload"
)

// tenantTraffic is one tenant's scripted audit stream: the JSONL lines
// in file order plus the per-client statement sequences they must end
// up as on any server that saw the whole stream exactly once.
type tenantTraffic struct {
	id    string
	lines []string
	want  map[string][]string // client -> ordered SQL
}

// buildTraffic flattens n scenario sessions into one interleaved audit
// log: clients take turns statement by statement, so cutting the file
// anywhere leaves every client mid-session — the failover has to carry
// live assembly state, not just closed history.
func buildTraffic(t *testing.T, id string, src workload.SessionSource, n int, base time.Time) tenantTraffic {
	t.Helper()
	tr := tenantTraffic{id: id, want: map[string][]string{}}
	type cursor struct {
		client string
		stmts  []string
	}
	var cur []cursor
	for i := 0; i < n; i++ {
		ss := src.NextSession()
		client := fmt.Sprintf("%s-c%d", id, i)
		cur = append(cur, cursor{client: client, stmts: ss.Statements})
		tr.want[client] = append([]string(nil), ss.Statements...)
	}
	for round, live := 0, true; live; round++ {
		live = false
		for _, c := range cur {
			if round >= len(c.stmts) {
				continue
			}
			live = true
			op := session.Operation{
				Time:      base.Add(time.Duration(len(tr.lines)) * time.Second),
				User:      "app",
				SessionID: c.client,
				SQL:       c.stmts[round],
			}
			b, err := json.Marshal(op)
			if err != nil {
				t.Fatal(err)
			}
			tr.lines = append(tr.lines, string(b))
		}
	}
	return tr
}

// appendLines appends audit lines to a (possibly new) tailed file.
func appendLines(t *testing.T, path string, lines []string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, ln := range lines {
		if _, err := f.WriteString(ln + "\n"); err != nil {
			t.Fatal(err)
		}
	}
}

// sessionView is the comparable shape of one exported open session.
type sessionView struct {
	Client string `json:"client"`
	Ops    []struct {
		SQL string `json:"sql"`
	} `json:"ops"`
}

// fetchSessions reads a tenant's open sessions as client -> ordered SQL.
func fetchSessions(base, tenant string) (map[string][]string, error) {
	resp, err := http.Get(base + "/v1/tenants/" + tenant + "/sessions")
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sessions %s = %d: %s", tenant, resp.StatusCode, body)
	}
	var views []sessionView
	if err := json.Unmarshal(body, &views); err != nil {
		return nil, fmt.Errorf("sessions %s: %v: %s", tenant, err, body)
	}
	out := map[string][]string{}
	for _, v := range views {
		for _, op := range v.Ops {
			out[v.Client] = append(out[v.Client], op.SQL)
		}
	}
	return out, nil
}

// sizes summarizes a session map as client:opcount for diagnostics.
func sizes(m map[string][]string) map[string]int {
	out := map[string]int{}
	for c, ops := range m {
		out[c] = len(ops)
	}
	return out
}

func sameSessions(got, want map[string][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for client, stmts := range want {
		g, ok := got[client]
		if !ok || len(g) != len(stmts) {
			return false
		}
		for i := range stmts {
			if g[i] != stmts[i] {
				return false
			}
		}
	}
	return true
}

// TestE2EFailoverZeroLoss is the end-to-end failover story with real
// processes: a primary ships WAL to a warm standby while per-tenant
// feeders (failover URL lists, rewind enabled) stream interleaved
// multi-client traffic; the primary is kill -9ed mid-stream, the
// standby is promoted, and the feeders rotate, rewind and redeliver.
// A third, never-interrupted control server consumes the same audit
// logs; at the end every tenant's open sessions on the promoted
// standby must match the control exactly — zero loss, zero duplicates,
// statement order preserved.
func TestE2EFailoverZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	root := t.TempDir()

	// Two tenants with genuinely different vocabularies, two ingest
	// shards each so session ownership is spread across shards.
	saveModel(t, trainOn(t, workload.NewScenarioSource(workload.ScenarioI(), 201, 0), 12),
		filepath.Join(root, "s1.model"))
	saveModel(t, trainOn(t, workload.NewScenarioSource(workload.ScenarioII(0.5), 202, 0), 12),
		filepath.Join(root, "s2.model"))
	specs := []map[string]string{
		{"id": "s1", "model": filepath.Join(root, "s1.model")},
		{"id": "s2", "model": filepath.Join(root, "s2.model")},
	}
	sb, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	tenantsFile := filepath.Join(root, "tenants.json")
	if err := os.WriteFile(tenantsFile, sb, 0o644); err != nil {
		t.Fatal(err)
	}

	primaryAddr, standbyAddr, controlAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	primaryBase := "http://" + primaryAddr
	standbyBase := "http://" + standbyAddr
	controlBase := "http://" + controlAddr

	common := []string{
		"-workers", "2",
		"-shards", "2",
		"-queue", "4096",
		// Sessions must stay open across the failover: no idle close-outs.
		"-idle-timeout", "1h",
	}
	// Tiny segments and a fast snapshot loop so the primary seals and
	// ships continuously under this small stream.
	primary := startChild(t, append([]string{
		"-tenants", tenantsFile,
		"-data-dir", filepath.Join(root, "primary"),
		"-addr", primaryAddr,
		"-fsync", "always",
		"-segment-bytes", "1024",
		"-snapshot-interval", "300ms",
	}, common...)...)
	defer primary.cmd.Process.Kill()
	standby := startChild(t, append([]string{
		"-data-dir", filepath.Join(root, "standby"),
		"-addr", standbyAddr,
		"-replicate-from", primaryBase,
		"-replica-poll", "100ms",
		"-fsync", "always",
		"-segment-bytes", "1024",
		"-snapshot-interval", "300ms",
	}, common...)...)
	defer standby.cmd.Process.Kill()
	control := startChild(t, append([]string{
		"-tenants", tenantsFile,
		"-addr", controlAddr,
	}, common...)...)
	defer control.cmd.Process.Kill()
	waitHealthy(t, primary, primaryBase)
	waitHealthy(t, standby, standbyBase)
	waitHealthy(t, control, controlBase)

	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf(format+"\n--- primary ---\n%s\n--- standby ---\n%s\n--- control ---\n%s",
			append(args, primary.log(), standby.log(), control.log())...)
	}
	var lastDiff string
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				fail("timed out waiting for %s (%s)", what, lastDiff)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	base := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	traffic := []tenantTraffic{
		buildTraffic(t, "s1", workload.NewScenarioSource(workload.ScenarioI(), 11, 0.1), 6, base),
		buildTraffic(t, "s2", workload.NewScenarioSource(workload.ScenarioII(0.5), 12, 0.1), 6, base),
	}

	// First half of each tenant's stream lands before the crash — cut
	// mid-file, so every client is mid-session when the primary dies.
	logPath := func(id string) string { return filepath.Join(root, id+".audit.jsonl") }
	for _, tr := range traffic {
		appendLines(t, logPath(tr.id), tr.lines[:len(tr.lines)/2])
	}

	// One failover feeder per tenant (primary first, standby second) and
	// one control feeder tailing the same file into the control server.
	// The huge rewind window pins the failover point at the stream's
	// start: the standby must dedupe the whole replicated prefix and
	// append only the tail the primary never shipped.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runningFeeder struct {
		name string
		done chan error
	}
	var feeders []runningFeeder
	startFeeder := func(name, tenant string, urls []string, rewind time.Duration) {
		tl, err := feed.NewTailer(feed.TailerConfig{Path: logPath(tenant), Poll: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tl.Close() })
		f, err := feed.NewFeeder(feed.FeederConfig{
			Source: tl,
			Deliver: &feed.HTTPDeliverer{
				URL:     urls[0],
				URLs:    urls,
				Tenant:  tenant,
				Backoff: feed.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
			},
			Tenant:         tenant,
			CheckpointPath: filepath.Join(root, name+".ckpt"),
			BatchSize:      8,
			FlushInterval:  10 * time.Millisecond,
			Idle:           time.Hour,
			FailoverRewind: rewind,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- f.Run(ctx) }()
		feeders = append(feeders, runningFeeder{name: name, done: done})
	}
	for _, tr := range traffic {
		startFeeder(tr.id+"-failover", tr.id, []string{primaryBase, standbyBase}, time.Hour)
		startFeeder(tr.id+"-control", tr.id, []string{controlBase}, 0)
	}

	// Primary absorbs the first half; the standby mirrors both tenants
	// (it must know them before the crash so redelivery routes) and has
	// completed sync rounds against the live primary.
	firstHalf := map[string]int{}
	for _, tr := range traffic {
		firstHalf[tr.id] = len(tr.lines) / 2
	}
	waitFor("primary to absorb the first half", func() bool {
		infos := listTenants(t, primaryBase)
		for id, n := range firstHalf {
			if int(infos[id].Stats.EventsAccepted) < n {
				return false
			}
		}
		return true
	})
	waitFor("standby to mirror both tenants", func() bool {
		resp, err := http.Get(standbyBase + "/v1/replication")
		if err != nil {
			return false
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st struct {
			Rounds  int64 `json:"rounds"`
			Tenants []struct {
				ID string `json:"id"`
			} `json:"tenants"`
		}
		if json.Unmarshal(body, &st) != nil {
			return false
		}
		return st.Rounds > 0 && len(st.Tenants) == len(traffic)
	})

	// kill -9 mid-stream: the active segment's unshipped tail dies with
	// the process; only the feeders can close that gap.
	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.cmd.Wait()

	// The rest of the stream arrives while the primary is a corpse and
	// the standby still refuses ingest (not promoted): the feeders park
	// on retryable errors, losing nothing.
	for _, tr := range traffic {
		appendLines(t, logPath(tr.id), tr.lines[len(tr.lines)/2:])
	}
	time.Sleep(200 * time.Millisecond)

	// Flip the switch.
	resp, err := http.Post(standbyBase+"/v1/promote", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("promote = %d: %s", resp.StatusCode, pbody)
	}
	for _, tr := range traffic {
		if !strings.Contains(string(pbody), tr.id) {
			fail("promote response %s does not name tenant %s", pbody, tr.id)
		}
	}

	// Convergence: the promoted standby's open sessions match the
	// uninterrupted control server for every tenant — and both match the
	// scripted stream, so this is zero loss and zero duplication, not
	// two servers sharing the same hole.
	waitFor("standby and control sessions to converge on the full stream", func() bool {
		for _, tr := range traffic {
			got, err := fetchSessions(standbyBase, tr.id)
			if err != nil || !sameSessions(got, tr.want) {
				lastDiff = fmt.Sprintf("standby %s: err=%v got=%v want=%v", tr.id, err, sizes(got), sizes(tr.want))
				return false
			}
			ctrl, err := fetchSessions(controlBase, tr.id)
			if err != nil || !sameSessions(ctrl, tr.want) {
				lastDiff = fmt.Sprintf("control %s: err=%v got=%v want=%v", tr.id, err, sizes(ctrl), sizes(tr.want))
				return false
			}
		}
		return true
	})

	// The feeders are healthy tails, not crashed loops: cancel and
	// require clean context exits.
	cancel()
	for _, rf := range feeders {
		select {
		case err := <-rf.done:
			if err != nil && !errors.Is(err, context.Canceled) {
				fail("feeder %s exited: %v", rf.name, err)
			}
		case <-time.After(10 * time.Second):
			fail("feeder %s did not stop", rf.name)
		}
	}

	// The promoted standby keeps serving: one more statement onto an
	// existing client of each tenant is accepted like any primary would.
	for _, tr := range traffic {
		client := tr.id + "-c0"
		b, _ := json.Marshal(map[string]string{
			"tenant": tr.id, "client_id": client, "user": "app", "sql": "SELECT 1",
		})
		resp, err := http.Post(standbyBase+"/v1/events", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			fail("post-promotion ingest %s = %d", tr.id, resp.StatusCode)
		}
	}

	standby.cmd.Process.Signal(os.Interrupt)
	standby.cmd.Wait()
	control.cmd.Process.Kill()
	control.cmd.Wait()
}

// TestE2EAutoPromote: a standby started with -auto-promote-after takes
// itself live once its primary has been dead that long — real processes,
// kill -9, nobody calls /v1/promote. The trigger runs inside the
// follower's own loop and promotion's first step is stopping that loop;
// when the two waited on each other the standby never promoted and a
// later manual promote hung on the same wait.
func TestE2EAutoPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	root := t.TempDir()
	model := filepath.Join(root, "ucad.model")
	saveModel(t, trainOn(t, workload.NewScenarioSource(workload.ScenarioI(), 201, 0), 12), model)

	primaryAddr, standbyAddr := freeAddr(t), freeAddr(t)
	primaryBase, standbyBase := "http://"+primaryAddr, "http://"+standbyAddr
	common := []string{"-workers", "2", "-shards", "2", "-idle-timeout", "1h",
		"-fsync", "always", "-segment-bytes", "1024", "-snapshot-interval", "200ms"}
	primary := startChild(t, append([]string{
		"-model", model, "-data-dir", filepath.Join(root, "primary"), "-addr", primaryAddr,
	}, common...)...)
	defer primary.cmd.Process.Kill()
	standby := startChild(t, append([]string{
		"-data-dir", filepath.Join(root, "standby"), "-addr", standbyAddr,
		"-replicate-from", primaryBase, "-replica-poll", "100ms", "-auto-promote-after", "1s",
	}, common...)...)
	defer standby.cmd.Process.Kill()
	waitHealthy(t, primary, primaryBase)
	waitHealthy(t, standby, standbyBase)

	client := &http.Client{Timeout: 5 * time.Second}
	postEvent := func(base, clientID string, i int) int {
		t.Helper()
		b, _ := json.Marshal(map[string]string{
			"client_id": clientID, "user": "app", "sql": fmt.Sprintf("SELECT * FROM t_report WHERE state = %d", i),
		})
		resp, err := client.Post(base+"/v1/events", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s/v1/events: %v\n--- standby ---\n%s", base, err, standby.log())
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s\n--- primary ---\n%s\n--- standby ---\n%s", what, primary.log(), standby.log())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	for i := 0; i < 12; i++ {
		for _, c := range []string{"c1", "c2"} {
			if code := postEvent(primaryBase, c, i); code != http.StatusAccepted {
				t.Fatalf("primary ingest = %d", code)
			}
		}
	}
	// The next snapshot seals all 24 operations into shipped files.
	waitFor("the standby to mirror both sessions", func() bool {
		got, err := fetchSessions(standbyBase, "default")
		return err == nil && len(got["c1"]) == 12 && len(got["c2"]) == 12
	})
	if !listTenants(t, standbyBase)["default"].Replica {
		t.Fatal("standby tenant not listed replica:true before the failover")
	}
	if code := postEvent(standbyBase, "c1", 12); code != http.StatusServiceUnavailable {
		t.Fatalf("unpromoted standby ingest = %d, want 503", code)
	}

	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.cmd.Wait()

	waitFor("the standby to promote itself", func() bool {
		return !listTenants(t, standbyBase)["default"].Replica
	})
	if code := postEvent(standbyBase, "c1", 12); code != http.StatusAccepted {
		t.Fatalf("self-promoted standby ingest = %d, want 202\n--- standby ---\n%s", code, standby.log())
	}
	got, err := fetchSessions(standbyBase, "default")
	if err != nil || len(got["c1"]) != 13 || len(got["c2"]) != 12 {
		t.Fatalf("sessions after self-promotion: %v (err %v), want c1:13 c2:12", sizes(got), err)
	}
	// A manual promote now is a refused state change, not a hang.
	resp, err := client.Post(standbyBase+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("manual promote after self-promotion: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "not_replica") {
		t.Fatalf("manual promote after self-promotion = %d %s, want 409 not_replica", resp.StatusCode, body)
	}

	standby.cmd.Process.Signal(os.Interrupt)
	standby.cmd.Wait()
}
