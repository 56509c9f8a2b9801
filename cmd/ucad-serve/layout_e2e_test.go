package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/workload"
)

// tree lists every path under root (relative, sorted by WalkDir) — the
// "directory left untouched" witness of the refusal cases.
func tree(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		out = append(out, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestE2ESingleTenantLayout: `ucad-serve -model m -data-dir d` is
// exactly tenant "default" under d/tenants/default/ — it restarts from
// there after kill -9 and a standby replicates it from there — while a
// directory in the old flat layout, and a WAL directory whose manifest
// is gone, each make the real binary exit non-zero with a message
// naming the fix, leaving the directory as it was.
func TestE2ESingleTenantLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	root := t.TempDir()
	model := filepath.Join(root, "m.model")
	saveModel(t, trainOn(t, workload.NewScenarioSource(workload.ScenarioI(), 101, 0), 12), model)
	dataDir := filepath.Join(root, "data")
	tenantDir := filepath.Join(dataDir, "tenants", "default")
	addr := freeAddr(t)
	base := "http://" + addr
	args := []string{
		"-model", model, "-data-dir", dataDir, "-addr", addr,
		"-fsync", "always", "-workers", "2", "-shards", "2",
		"-idle-timeout", "1h",
		// Tiny segments and frequent snapshots seal state fast enough for
		// the standby to have something to mirror.
		"-segment-bytes", "512", "-snapshot-interval", "200ms",
	}
	primary := startChild(t, args...)
	defer primary.cmd.Process.Kill()
	waitHealthy(t, primary, base)

	src := workload.NewScenarioSource(workload.ScenarioI(), 1, 0)
	sent := map[string][]string{} // client -> statements, in order
	for i := 0; i < 3; i++ {
		ss := src.NextSession()
		for _, sql := range ss.Statements {
			sent[ss.ClientID] = append(sent[ss.ClientID], sql)
			b, _ := json.Marshal(map[string]string{"client_id": ss.ClientID, "user": ss.User, "sql": sql})
			resp, err := http.Post(base+"/v1/events", "application/json", strings.NewReader(string(b)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("ingest = %d; child output:\n%s", resp.StatusCode, primary.log())
			}
		}
	}
	for _, sub := range []string{"wal", "checkpoints", "tenant.json"} {
		if _, err := os.Stat(filepath.Join(tenantDir, sub)); err != nil {
			t.Fatalf("single-tenant state not under tenants/default: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dataDir, sub)); err == nil {
			t.Fatalf("single-tenant mode wrote %s at the data-dir root", sub)
		}
	}

	// A standby mirrors the default tenant with no alias in between.
	standbyAddr := freeAddr(t)
	standby := startChild(t, "-data-dir", filepath.Join(root, "standby"), "-addr", standbyAddr,
		"-replicate-from", base, "-replica-poll", "100ms")
	defer standby.cmd.Process.Kill()
	waitHealthy(t, standby, "http://"+standbyAddr)
	// What "mirrors" means is the state, not how it arrived: once a
	// snapshot covers every record and no more events come, the standby
	// restores the sessions from that snapshot and rightly applies zero
	// WAL records, so applied_records > 0 only holds when its first sync
	// beats the primary's next snapshot.
	deadline := time.Now().Add(20 * time.Second)
	for {
		got, err := fetchSessions("http://"+standbyAddr, "default")
		if err == nil && sameSessions(got, sent) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never mirrored the default tenant's sessions: got %v (err %v), want %v\nstandby output:\n%s",
				sizes(got), err, sizes(sent), standby.log())
		}
		time.Sleep(50 * time.Millisecond)
	}
	standby.cmd.Process.Kill()
	standby.cmd.Wait()

	// kill -9 and restart: the default tenant comes back from
	// tenants/default/ with every session.
	primary.cmd.Process.Kill()
	primary.cmd.Wait()
	restarted := startChild(t, args...)
	defer restarted.cmd.Process.Kill()
	waitHealthy(t, restarted, base)
	if in := listTenants(t, base)["default"]; in.CleanSeal || in.Recovered != len(sent) {
		t.Fatalf("restart: %+v, want %d sessions recovered from a crash", in, len(sent))
	}
	restarted.cmd.Process.Signal(os.Interrupt)
	if err := restarted.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v; output:\n%s", err, restarted.log())
	}

	refused := func(what string, wants ...string) {
		t.Helper()
		before := tree(t, dataDir)
		c := startChild(t, args...)
		err := c.cmd.Wait()
		if err == nil {
			t.Fatalf("%s: ucad-serve exited zero; output:\n%s", what, c.log())
		}
		for _, want := range wants {
			if !strings.Contains(c.log(), want) {
				t.Fatalf("%s: output does not name %q:\n%s", what, want, c.log())
			}
		}
		if after := tree(t, dataDir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: refusal changed the directory:\n got %v\nwant %v", what, after, before)
		}
	}

	// The pre-tenant flat layout: the same files one level up.
	for _, sub := range []string{"wal", "checkpoints", "tenant.json"} {
		if err := os.Rename(filepath.Join(tenantDir, sub), filepath.Join(dataDir, sub)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(filepath.Join(dataDir, "tenants")); err != nil {
		t.Fatal(err)
	}
	refused("flat layout", "flat", fmt.Sprintf("mv %s/wal", dataDir), tenantDir)

	// Doing what the message says makes it boot again, sessions intact.
	if err := os.MkdirAll(tenantDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"wal", "checkpoints", "tenant.json"} {
		if err := os.Rename(filepath.Join(dataDir, sub), filepath.Join(tenantDir, sub)); err != nil {
			t.Fatal(err)
		}
	}
	moved := startChild(t, args...)
	defer moved.cmd.Process.Kill()
	waitHealthy(t, moved, base)
	if in := listTenants(t, base)["default"]; !in.CleanSeal || in.Recovered != len(sent) {
		t.Fatalf("after the move: %+v, want a clean seal and %d sessions", in, len(sent))
	}
	moved.cmd.Process.Signal(os.Interrupt)
	moved.cmd.Wait()

	// Stream files without the manifest that names their layout.
	if err := os.Remove(filepath.Join(tenantDir, "wal", "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	refused("manifest-less WAL", "MANIFEST.json", "move the stream files")
}

// TestE2EBindBeforeBoot: a second process on a taken port exits
// non-zero before it opens (or creates) anything under its data dir —
// no tenant WAL is left unsealed by a mistyped -addr.
func TestE2EBindBeforeBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	root := t.TempDir()
	model := filepath.Join(root, "m.model")
	saveModel(t, trainOn(t, workload.NewScenarioSource(workload.ScenarioI(), 101, 0), 12), model)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	dataDir := filepath.Join(root, "data")
	c := startChild(t, "-model", model, "-data-dir", dataDir, "-addr", taken.Addr().String())
	if err := c.cmd.Wait(); err == nil {
		t.Fatalf("ucad-serve on a taken port exited zero; output:\n%s", c.log())
	}
	if !strings.Contains(c.log(), taken.Addr().String()) {
		t.Fatalf("output does not name the address:\n%s", c.log())
	}
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Fatalf("refused start touched the data dir (stat err %v): %v", err, tree(t, dataDir))
	}
}
