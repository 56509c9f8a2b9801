package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/replica"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/wal"
)

// TestReplicaFollowerPromoteFailover is the in-process failover loop:
// a durable two-tenant primary ships through a real HTTP shipper, a
// follower builds warm replica tenants in a second registry, promotion
// over the admin API flips them live, and a restart of the promoted
// standby proves its own WAL carried both eras.
func TestReplicaFollowerPromoteFailover(t *testing.T) {
	clk := newFakeClock()
	rootA, rootB := t.TempDir(), t.TempDir()

	optsA := durableOptions(clk, rootA)
	optsA.Durability.SegmentBytes = 256 // rotate early so history ships
	regA := New(optsA)
	modelA := filepath.Join(rootA, "a.model")
	modelB := filepath.Join(rootA, "b.model")
	saveModel(t, trainModel(t, "va"), modelA)
	saveModel(t, trainModel(t, "vb"), modelB)
	if err := regA.Boot([]Spec{
		{ID: "alpha", ModelPath: modelA},
		{ID: "beta", ModelPath: modelB},
	}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, regA, "alpha", "a-c1", "va", 6)
	ingestN(t, regA, "alpha", "a-c2", "va", 4)
	ingestN(t, regA, "beta", "b-c1", "vb", 5)
	for _, tn := range regA.List() {
		tn.Service().Drain()
		// Seal the primaries' current state into shipped files: the
		// active-segment tail never replicates, a snapshot does.
		if err := tn.Service().SnapshotNow(); err != nil {
			t.Fatal(err)
		}
	}

	sh := &replica.Shipper{Root: filepath.Join(rootA, "tenants")}
	primary := httptest.NewServer(sh.Handler())
	defer primary.Close()

	optsB := durableOptions(clk, rootB)
	optsB.Durability.SegmentBytes = 256
	regB := New(optsB)
	follower := followInto(t, regB, primary.URL, rootB)

	for _, id := range []string{"alpha", "beta"} {
		tn, err := regB.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !tn.Replica() {
			t.Fatalf("tenant %s not in replica mode", id)
		}
		want := tenantByID(t, regA, id).Service().ExportSessions()
		got := tn.Service().ExportSessions()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %s diverges:\n got %+v\nwant %+v", id, got, want)
		}
	}
	if err := regB.Ingest(serve.Event{Tenant: "alpha", ClientID: "x", SQL: "SELECT 1"}); !errors.Is(err, serve.ErrNotReady) {
		t.Fatalf("replica ingest: %v, want ErrNotReady", err)
	}

	// Promotion, the way cmd/ucad-serve runs it: stop following, one
	// final sync, then the registry flips.
	follower.Stop()
	follower.SyncOnce(context.Background())
	adminB := httptest.NewServer(regB.Handler())
	defer adminB.Close()
	res, err := http.Post(adminB.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Promoted []string `json:"promoted"`
	}
	if err := json.NewDecoder(res.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !reflect.DeepEqual(pr.Promoted, []string{"alpha", "beta"}) {
		t.Fatalf("promote: %d %+v", res.StatusCode, pr)
	}
	res, err = http.Post(adminB.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var eb bytes.Buffer
	eb.ReadFrom(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusConflict || !bytes.Contains(eb.Bytes(), []byte(CodeNotReplica)) {
		t.Fatalf("second promote: %d %s", res.StatusCode, eb.String())
	}

	// The promoted standby serves, durably, with session history intact.
	ingestN(t, regB, "alpha", "a-c1", "va", 3)
	ingestN(t, regB, "beta", "b-c2", "vb", 2)
	alphaB := tenantByID(t, regB, "alpha")
	alphaB.Service().Drain()
	tenantByID(t, regB, "beta").Service().Drain()
	wantAlpha := alphaB.Service().ExportSessions()
	if err := regB.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	regC := New(durableOptions(clk, rootB))
	if err := regC.Boot(nil); err != nil {
		t.Fatal(err)
	}
	defer regC.Close(context.Background())
	gotAlpha := tenantByID(t, regC, "alpha").Service().ExportSessions()
	if !reflect.DeepEqual(stripSessionTimes(gotAlpha), stripSessionTimes(wantAlpha)) {
		t.Fatalf("restarted promoted standby diverges:\n got %+v\nwant %+v", gotAlpha, wantAlpha)
	}
	if n := len(tenantByID(t, regC, "beta").Service().ExportSessions()); n != 2 {
		t.Fatalf("beta restored %d sessions, want 2", n)
	}
	if err := regA.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteFailureLeavesReplica: promotion is all-or-nothing. While
// the sealing snapshot cannot be written (a directory squats on every
// name it could take — a fault that binds even a root test process,
// which chmod does not) POST /v1/promote fails and the tenant is still a
// replica: listed replica:true, refusing ingest with not_ready, idle
// sweeper not running. Once the fault heals the same request promotes
// it, and the sweeper closes the sessions that went idle meanwhile.
func TestPromoteFailureLeavesReplica(t *testing.T) {
	clk := newFakeClock()
	rootA, rootB := t.TempDir(), t.TempDir()

	regA := New(durableOptions(clk, rootA))
	defer regA.Close(context.Background())
	model := filepath.Join(rootA, "a.model")
	saveModel(t, trainModel(t, "va"), model)
	if err := regA.Boot([]Spec{{ID: "alpha", ModelPath: model}}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, regA, "alpha", "a-c1", "va", 6)
	ingestN(t, regA, "alpha", "a-c2", "va", 4)
	alphaA := tenantByID(t, regA, "alpha")
	alphaA.Service().Drain()
	if err := alphaA.Service().SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	sh := &replica.Shipper{Root: filepath.Join(rootA, "tenants")}
	primary := httptest.NewServer(sh.Handler())
	defer primary.Close()

	optsB := durableOptions(clk, rootB)
	optsB.Serve.SweepEvery = 5 * time.Millisecond
	regB := New(optsB)
	defer regB.Close(context.Background())
	followInto(t, regB, primary.URL, rootB).Stop()
	alphaB := tenantByID(t, regB, "alpha")
	if n := alphaB.Stats().SessionsOpen; n != 2 {
		t.Fatalf("standby replayed %d sessions, want 2", n)
	}
	clk.Advance(time.Hour) // every replayed session is now idle

	walDir := filepath.Join(rootB, "tenants", "alpha", "wal")
	var squatters []string
	for shard := 0; shard < alphaB.Stats().Shards; shard++ {
		for seq := uint64(1); seq <= 64; seq++ {
			p := filepath.Join(walDir, wal.SnapshotFileName(wal.ShardSnapshotPrefix(shard), seq))
			if os.Mkdir(p, 0o755) == nil {
				squatters = append(squatters, p)
			}
		}
	}

	adminB := httptest.NewServer(regB.Handler())
	defer adminB.Close()
	post := func(path, body string) (int, string) {
		t.Helper()
		res, err := http.Post(adminB.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(res.Body)
		return res.StatusCode, b.String()
	}
	const event = `{"tenant":"alpha","client_id":"a-c1","user":"app","sql":"SELECT 1"}`

	if code, body := post("/v1/promote", ""); code == http.StatusOK {
		t.Fatalf("promote with an unwritable wal/ answered 200: %s", body)
	}
	if !alphaB.info().Replica {
		t.Fatal("failed promotion left the tenant live")
	}
	if code, body := post("/v1/events", event); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte(CodeNotReady)) {
		t.Fatalf("ingest after failed promotion: %d %s, want 503 %s", code, body, CodeNotReady)
	}
	if st := alphaB.Stats(); st.SessionsClosed != 0 || st.SessionsOpen != 2 || st.Promotions != 0 {
		t.Fatalf("failed promotion disturbed the standby: %+v", st)
	}

	for _, p := range squatters {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if code, body := post("/v1/promote", ""); code != http.StatusOK || !bytes.Contains([]byte(body), []byte(`"alpha"`)) {
		t.Fatalf("promote after healing: %d %s", code, body)
	}
	if alphaB.info().Replica {
		t.Fatal("still a replica after promotion")
	}
	deadline := time.Now().Add(10 * time.Second)
	for alphaB.Stats().SessionsOpen != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle sweeper never ran on the promoted tenant: %+v", alphaB.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := post("/v1/events", event); code != http.StatusAccepted {
		t.Fatalf("ingest after promotion: %d %s", code, body)
	}
}

// TestStandbyModelsPassThroughTune: every model a standby serves goes
// through its registry's Tune hook — the one it loads at creation, each
// shipped checkpoint its replayer installs, and so the one it goes live
// with. The primary has no hook, so its seeded checkpoint keeps the
// model's own TrainWorkers (1); the standby's hook sets 3 workers and the
// float32 kernel together, so the train-workers gauge reading 3 shows
// the served model carries the hook's scoring precision too.
func TestStandbyModelsPassThroughTune(t *testing.T) {
	clk := newFakeClock()
	rootA, rootB := t.TempDir(), t.TempDir()

	regA := New(durableOptions(clk, rootA))
	defer regA.Close(context.Background())
	model := filepath.Join(rootA, "a.model")
	saveModel(t, trainModel(t, "va"), model)
	if err := regA.Boot([]Spec{{ID: "alpha", ModelPath: model}}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, regA, "alpha", "a-c1", "va", 4)
	alphaA := tenantByID(t, regA, "alpha")
	alphaA.Service().Drain()
	if err := alphaA.Service().SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	sh := &replica.Shipper{Root: filepath.Join(rootA, "tenants")}
	primary := httptest.NewServer(sh.Handler())
	defer primary.Close()

	optsB := durableOptions(clk, rootB)
	optsB.Tune = func(u *core.UCAD) {
		u.Model.SetTrainParallelism(3, 16)
		u.Model.SetScorePrecision(transdas.PrecisionFloat32)
	}
	regB := New(optsB)
	defer regB.Close(context.Background())
	follower := followInto(t, regB, primary.URL, rootB)
	adminB := httptest.NewServer(regB.Handler())
	defer adminB.Close()
	const gauge = `ucad_train_workers{tenant="alpha"}`
	if got := seriesValue(t, adminB.URL, gauge); got != 3 {
		t.Fatalf("standby after its first replay round: %s = %v, want 3", gauge, got)
	}

	follower.Stop()
	follower.SyncOnce(context.Background())
	if promoted, err := regB.Promote(); err != nil || !reflect.DeepEqual(promoted, []string{"alpha"}) {
		t.Fatalf("promote: %v %v", promoted, err)
	}
	if got := seriesValue(t, adminB.URL, gauge); got != 3 {
		t.Fatalf("promoted standby: %s = %v, want 3", gauge, got)
	}
	ingestN(t, regB, "alpha", "a-c1", "va", 2)
	alphaB := tenantByID(t, regB, "alpha")
	alphaB.Service().Drain()
	if st := alphaB.Stats(); st.OpsScored == 0 {
		t.Fatalf("promoted standby scored nothing: %+v", st)
	}
}

// followInto wires a follower of primaryURL that builds its standby
// tenants in reg (the cmd/ucad-serve OpenTarget) and runs one sync
// round.
func followInto(t *testing.T, reg *Registry, primaryURL, root string) *replica.Follower {
	t.Helper()
	f, err := replica.NewFollower(replica.FollowerConfig{
		PrimaryURL: primaryURL,
		Root:       root,
		OpenTarget: func(id, dir string) (replica.Target, error) {
			tn, err := reg.CreateReplica(id)
			if err != nil {
				return nil, err
			}
			return tn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	return f
}

func tenantByID(t *testing.T, r *Registry, id string) *Tenant {
	t.Helper()
	tn, err := r.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// stripSessionTimes zeroes wall-clock fields so restart comparisons
// check structure and keys, not timestamps.
func stripSessionTimes(ss []serve.SessionState) []serve.SessionState {
	out := make([]serve.SessionState, len(ss))
	for i, s := range ss {
		s.LastSeen = serve.SessionState{}.LastSeen
		for j := range s.Ops {
			s.Ops[j].Time = s.LastSeen
		}
		out[i] = s
	}
	return out
}

// TestBootOldCheckpointManifest: a checkpoints/ directory an older
// build wrote — ckpt-*.model files plus a JSON MANIFEST naming them —
// boots from the checkpoint that MANIFEST named current, and the
// shipper lists the checkpoint files but never the MANIFEST, which
// nothing reads any more.
func TestBootOldCheckpointManifest(t *testing.T) {
	clk := newFakeClock()
	root := t.TempDir()
	model := filepath.Join(root, "m.model")
	saveModel(t, trainModel(t, "va"), model)
	ckptDir := filepath.Join(root, "tenants", serve.DefaultTenant, "checkpoints")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	saveModel(t, trainModel(t, "va"), filepath.Join(ckptDir, "ckpt-00000001.model"))
	saveModel(t, trainModel(t, "vb"), filepath.Join(ckptDir, "ckpt-00000002.model"))
	old := `{"version":1,"history":["ckpt-00000001.model","ckpt-00000002.model"]}` + "\n"
	if err := os.WriteFile(filepath.Join(ckptDir, "MANIFEST"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := New(durableOptions(clk, root))
	if err := reg.Boot([]Spec{{ModelPath: model}}); err != nil {
		t.Fatal(err)
	}
	defer reg.Close(context.Background())
	tn, err := reg.Get("")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tn.ModelSource(), filepath.Join(ckptDir, "ckpt-00000002.model"); got != want {
		t.Fatalf("booted from %q, want the old MANIFEST's current %q", got, want)
	}

	sh := &replica.Shipper{Root: filepath.Join(root, "tenants")}
	rec := httptest.NewRecorder()
	sh.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/replica/files", nil))
	var listing struct {
		Tenants map[string][]replica.FileInfo `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("files listing %q: %v", rec.Body.String(), err)
	}
	var shipped []string
	for _, f := range listing.Tenants[serve.DefaultTenant] {
		if filepath.Dir(f.Path) == "checkpoints" {
			shipped = append(shipped, f.Path)
		}
	}
	if want := []string{"checkpoints/ckpt-00000001.model", "checkpoints/ckpt-00000002.model"}; !reflect.DeepEqual(shipped, want) {
		t.Fatalf("shipped checkpoints %v, want %v", shipped, want)
	}
}
