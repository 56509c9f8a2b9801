package tenant

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/wal"
)

// trainModel builds a deterministic tiny detector over an 8-template
// workload whose table names carry the given prefix — two prefixes give
// two genuinely different vocabularies, so cross-tenant leakage would
// be visible as wrong keys, not just wrong counters. TopP = Vocab-1
// makes only out-of-vocabulary statements flag (the serve test idiom).
func trainModel(tb testing.TB, prefix string) *core.UCAD {
	tb.Helper()
	var sessions []*session.Session
	for i := 0; i < 16; i++ {
		s := &session.Session{ID: fmt.Sprintf("train-%d", i), User: "app"}
		for p := 0; p < 12; p++ {
			s.Ops = append(s.Ops, session.Operation{SQL: normalStatement(prefix, i+p)})
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
	cfg.Model.TopP = 8 // = Vocab-1
	u, err := core.Train(cfg, sessions, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

func normalStatement(prefix string, pos int) string {
	tmpl := []func(i int) string{
		func(i int) string { return fmt.Sprintf("SELECT * FROM %s_videos WHERE vid = %d", prefix, i) },
		func(i int) string { return fmt.Sprintf("SELECT * FROM %s_users WHERE uid = %d", prefix, i) },
		func(i int) string { return fmt.Sprintf("INSERT INTO %s_views (vid, uid) VALUES (%d, %d)", prefix, i, i+1) },
		func(i int) string { return fmt.Sprintf("UPDATE %s_stats SET views = %d WHERE vid = %d", prefix, i, i) },
		func(i int) string { return fmt.Sprintf("SELECT * FROM %s_comments WHERE vid = %d", prefix, i) },
		func(i int) string {
			return fmt.Sprintf("INSERT INTO %s_comments (vid, uid, text) VALUES (%d, %d, 'c%d')", prefix, i, i, i)
		},
		func(i int) string { return fmt.Sprintf("DELETE FROM %s_comments WHERE cid = %d", prefix, i) },
		func(i int) string { return fmt.Sprintf("SELECT * FROM %s_stats WHERE vid = %d", prefix, i) },
	}
	return tmpl[pos%len(tmpl)](pos)
}

// anomalySQL is out-of-vocabulary for every prefix, so it flags
// deterministically in any tenant.
const anomalySQL = "SELECT * FROM credit_cards WHERE uid = 7"

// cloneUCAD gob-roundtrips a model so a control service and a tenant
// hold byte-identical but independent detectors.
func cloneUCAD(tb testing.TB, u *core.UCAD) *core.UCAD {
	tb.Helper()
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	c, err := core.Load(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// saveModel persists a model to disk for the Spec.ModelPath /
// tenant.json boot paths.
func saveModel(tb testing.TB, u *core.UCAD, path string) {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	if err := u.Save(f); err != nil {
		tb.Fatal(err)
	}
}

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

func testServeConfig(clk *fakeClock) serve.Config {
	return serve.Config{
		Workers:     2,
		QueueSize:   256,
		Batch:       4,
		IdleTimeout: 10 * time.Minute,
		SweepEvery:  -1,
		Clock:       clk.Now,
	}
}

// stream is one tenant's deterministic workload: two clients, ten
// statements each, one anomaly at a tenant-specific position.
func stream(tenant, prefix string, anomalyClient, anomalyPos int) []serve.Event {
	var evs []serve.Event
	for pos := 0; pos < 10; pos++ {
		for c := 0; c < 2; c++ {
			sql := normalStatement(prefix, pos)
			if c == anomalyClient && pos == anomalyPos {
				sql = anomalySQL
			}
			evs = append(evs, serve.Event{
				Tenant:   tenant,
				ClientID: fmt.Sprintf("%s-c%d", tenant, c),
				User:     "app",
				SQL:      sql,
			})
		}
	}
	return evs
}

// comparable projects the observable per-tenant outcome: alerts modulo
// ids/timestamps, plus the deterministic counters.
type comparable struct {
	Alerts []serve.Alert
	Stats  serve.Stats
}

func observe(svc *serve.Service) comparable {
	alerts := svc.Alerts("")
	for i := range alerts {
		alerts[i].ID = 0
		alerts[i].CreatedAt = time.Time{}
		alerts[i].UpdatedAt = time.Time{}
	}
	st := svc.Stats()
	st.UptimeSeconds = 0
	st.QueueDepth = 0
	return comparable{Alerts: alerts, Stats: st}
}

// TestTenantIsolationBitIdentical: two tenants with different
// vocabularies ingesting concurrently must produce exactly the outcome
// of two isolated single-tenant services fed the same streams — same
// alerts (positions, statements, sessions), same counters.
func TestTenantIsolationBitIdentical(t *testing.T) {
	clk := newFakeClock()
	ua, ub := trainModel(t, "va"), trainModel(t, "vb")

	reg := New(Options{Serve: testServeConfig(clk)})
	ta, err := reg.CreateFromModel(Spec{ID: "alpha"}, cloneUCAD(t, ua))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := reg.CreateFromModel(Spec{ID: "beta"}, cloneUCAD(t, ub))
	if err != nil {
		t.Fatal(err)
	}

	sa := stream("alpha", "va", 0, 6)
	sb := stream("beta", "vb", 1, 5)

	// Concurrent ingest through the routed path (-race guards the
	// registry lookup and the independent pipelines).
	var wg sync.WaitGroup
	for _, evs := range [][]serve.Event{sa, sb} {
		wg.Add(1)
		go func(evs []serve.Event) {
			defer wg.Done()
			for _, ev := range evs {
				if err := reg.Ingest(ev); err != nil {
					t.Error(err)
					return
				}
			}
		}(evs)
	}
	wg.Wait()
	ta.Service().Drain()
	tb.Service().Drain()

	// Controls: isolated single-tenant services over clones of the same
	// models, same config, same streams (Tenant field ignored there).
	ctlA := serve.NewService(cloneUCAD(t, ua), testServeConfig(clk))
	ctlB := serve.NewService(cloneUCAD(t, ub), testServeConfig(clk))
	defer ctlA.Stop()
	defer ctlB.Stop()
	for _, ev := range sa {
		if err := ctlA.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range sb {
		if err := ctlB.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	ctlA.Drain()
	ctlB.Drain()

	// Close everything out on the shared fake clock and compare.
	clk.Advance(11 * time.Minute)
	ta.Service().CloseIdleNow()
	tb.Service().CloseIdleNow()
	ctlA.CloseIdleNow()
	ctlB.CloseIdleNow()

	if got, want := observe(ta.Service()), observe(ctlA); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenant alpha diverges from isolated control:\n got %+v\nwant %+v", got, want)
	}
	if got, want := observe(tb.Service()), observe(ctlB); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenant beta diverges from isolated control:\n got %+v\nwant %+v", got, want)
	}
	// Sanity: each tenant saw exactly its own anomaly.
	for _, tn := range []*Tenant{ta, tb} {
		alerts := tn.Service().Alerts("")
		if len(alerts) != 1 || len(alerts[0].Statements) == 0 || alerts[0].Statements[0] != anomalySQL {
			t.Fatalf("tenant %s alerts: %+v", tn.ID(), alerts)
		}
	}
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func durableOptions(clk *fakeClock, root string) Options {
	return Options{
		Root:  root,
		Serve: testServeConfig(clk),
		Durability: serve.DurabilityConfig{
			Fsync: wal.SyncAlways,
		},
	}
}

func ingestN(t *testing.T, reg *Registry, tenant, client, prefix string, n int) {
	t.Helper()
	for pos := 0; pos < n; pos++ {
		err := reg.Ingest(serve.Event{
			Tenant: tenant, ClientID: client, User: "app", SQL: normalStatement(prefix, pos),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTenantCrashRestartIndependent: abandoning the registry without
// Close (in-process kill -9 stand-in; fsync=always) and re-booting from
// the persisted tenant.json specs must restore each tenant's sessions
// from its own WAL, independently.
func TestTenantCrashRestartIndependent(t *testing.T) {
	clk := newFakeClock()
	root := t.TempDir()
	modelA := filepath.Join(root, "a.model")
	modelB := filepath.Join(root, "b.model")
	saveModel(t, trainModel(t, "va"), modelA)
	saveModel(t, trainModel(t, "vb"), modelB)

	reg1 := New(durableOptions(clk, root))
	if err := reg1.Boot([]Spec{
		{ID: "alpha", ModelPath: modelA},
		{ID: "beta", ModelPath: modelB},
	}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, reg1, "alpha", "a-c1", "va", 5)
	ingestN(t, reg1, "alpha", "a-c2", "va", 3)
	ingestN(t, reg1, "beta", "b-c1", "vb", 4)
	for _, tn := range reg1.List() {
		tn.Service().Drain()
	}
	// No Close: the WAL handles just drop, like a kill -9.

	// The restart names no specs at all — Boot must rediscover both
	// tenants from their persisted tenant.json records.
	reg2 := New(durableOptions(clk, root))
	if err := reg2.Boot(nil); err != nil {
		t.Fatal(err)
	}
	defer reg2.Close(context.Background())
	ta, err := reg2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := reg2.Get("beta")
	if err != nil {
		t.Fatal(err)
	}
	if rst := ta.RestoreStats(); rst.Sessions != 2 || rst.CleanSeal {
		t.Fatalf("alpha restore: %+v, want 2 sessions from a crash", rst)
	}
	if rst := tb.RestoreStats(); rst.Sessions != 1 || rst.CleanSeal {
		t.Fatalf("beta restore: %+v, want 1 session from a crash", rst)
	}
	// The restored context keeps scoring: an anomaly on alpha's
	// recovered session flags there and only there.
	if err := reg2.Ingest(serve.Event{Tenant: "alpha", ClientID: "a-c1", User: "app", SQL: anomalySQL}); err != nil {
		t.Fatal(err)
	}
	ta.Service().Drain()
	if st := ta.Stats(); st.MidSessionFlags != 1 {
		t.Fatalf("alpha flags = %d, want 1", st.MidSessionFlags)
	}
	if st := tb.Stats(); st.MidSessionFlags != 0 {
		t.Fatalf("beta flags = %d, want 0 (cross-tenant leakage)", st.MidSessionFlags)
	}
}

// TestTenantCleanShutdownRestart: Close seals every tenant's log; the
// next Boot reports clean seals and the preserved open sessions.
func TestTenantCleanShutdownRestart(t *testing.T) {
	clk := newFakeClock()
	root := t.TempDir()
	model := filepath.Join(root, "m.model")
	saveModel(t, trainModel(t, "va"), model)

	reg1 := New(durableOptions(clk, root))
	if _, err := reg1.Create(Spec{ID: "alpha", ModelPath: model}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, reg1, "alpha", "c1", "va", 4)
	if err := reg1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg2 := New(durableOptions(clk, root))
	if err := reg2.Boot(nil); err != nil {
		t.Fatal(err)
	}
	defer reg2.Close(context.Background())
	ta, err := reg2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if rst := ta.RestoreStats(); rst.Sessions != 1 || !rst.CleanSeal {
		t.Fatalf("restore after clean shutdown: %+v", rst)
	}
}

// TestTenantDeleteIsolated: deleting one tenant removes its directory
// and metric series without disturbing its sibling, and frees the id
// for re-creation.
func TestTenantDeleteIsolated(t *testing.T) {
	clk := newFakeClock()
	root := t.TempDir()
	reg := New(durableOptions(clk, root))
	defer reg.Close(context.Background())
	ua, ub := trainModel(t, "va"), trainModel(t, "vb")
	if _, err := reg.CreateFromModel(Spec{ID: "alpha"}, cloneUCAD(t, ua)); err != nil {
		t.Fatal(err)
	}
	tb, err := reg.CreateFromModel(Spec{ID: "beta"}, ub)
	if err != nil {
		t.Fatal(err)
	}
	ingestN(t, reg, "alpha", "c1", "va", 3)
	ingestN(t, reg, "beta", "c1", "vb", 3)

	alphaDir := filepath.Join(root, "tenants", "alpha")
	betaDir := filepath.Join(root, "tenants", "beta")
	if _, err := os.Stat(alphaDir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(alphaDir); !os.IsNotExist(err) {
		t.Fatalf("alpha dir still present: %v", err)
	}
	if _, err := os.Stat(betaDir); err != nil {
		t.Fatalf("beta dir disturbed: %v", err)
	}
	if err := reg.Ingest(serve.Event{Tenant: "alpha", ClientID: "c", SQL: "SELECT 1"}); !errorsIs(err, ErrUnknownTenant) {
		t.Fatalf("post-delete ingest: %v, want ErrUnknownTenant", err)
	}
	// The sibling keeps serving.
	if err := reg.Ingest(serve.Event{Tenant: "beta", ClientID: "c1", User: "app", SQL: normalStatement("vb", 3)}); err != nil {
		t.Fatal(err)
	}
	tb.Service().Drain()
	if st := tb.Stats(); st.EventsAccepted != 4 {
		t.Fatalf("beta accepted = %d, want 4", st.EventsAccepted)
	}
	// The id is fully reusable: metrics children were removed, so a
	// re-created tenant binds cleanly (a leak would panic in bind).
	if _, err := reg.CreateFromModel(Spec{ID: "alpha"}, cloneUCAD(t, ua)); err != nil {
		t.Fatal(err)
	}
}

// TestTenantLifecycleErrors covers the error surface: invalid ids,
// duplicates, unknown tenants, draining, closed registries.
func TestTenantLifecycleErrors(t *testing.T) {
	clk := newFakeClock()
	reg := New(Options{Serve: testServeConfig(clk)})
	u := trainModel(t, "va")
	for _, bad := range []string{"", "-lead", "has space", "a/b", "..", string(make([]byte, 65))} {
		if err := ValidateID(bad); err == nil {
			t.Fatalf("ValidateID(%q) accepted", bad)
		}
	}
	if _, err := reg.CreateFromModel(Spec{ID: "x!"}, u); !errorsIs(err, ErrInvalidID) {
		t.Fatalf("create invalid id: %v", err)
	}
	if _, err := reg.CreateFromModel(Spec{ID: "dup"}, cloneUCAD(t, u)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateFromModel(Spec{ID: "dup"}, cloneUCAD(t, u)); !errorsIs(err, ErrTenantExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := reg.Get("ghost"); !errorsIs(err, ErrUnknownTenant) {
		t.Fatalf("get ghost: %v", err)
	}
	if err := reg.Delete("ghost"); !errorsIs(err, ErrUnknownTenant) {
		t.Fatalf("delete ghost: %v", err)
	}
	if _, err := reg.Drain("dup"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Ingest(serve.Event{Tenant: "dup", ClientID: "c", SQL: "SELECT 1"}); !errorsIs(err, ErrDraining) {
		t.Fatalf("drained ingest: %v", err)
	}
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("dup"); !errorsIs(err, ErrRegistryClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if _, err := reg.CreateFromModel(Spec{ID: "late"}, u); !errorsIs(err, ErrRegistryClosed) {
		t.Fatalf("create after close: %v", err)
	}
}

func errorsIs(err, target error) bool { return errors.Is(err, target) }

// TestBootRefusesFlatLayout: a data root still in the pre-tenant flat
// layout (wal/ and checkpoints/ directly under it) is refused before
// anything is created — never read, never shadowed by a fresh default
// tenant — with an error spelling out the one-time move; after the move
// the same root boots with its sessions. The spec record Create wrote
// went through wal.WriteAtomic, so no staging file lingers.
func TestBootRefusesFlatLayout(t *testing.T) {
	clk := newFakeClock()
	root := t.TempDir()
	model := filepath.Join(t.TempDir(), "m.model")
	saveModel(t, trainModel(t, "va"), model)
	specs := []Spec{{ModelPath: model}}

	reg := New(durableOptions(clk, root))
	if err := reg.Boot(specs); err != nil {
		t.Fatal(err)
	}
	ingestN(t, reg, "", "c1", "va", 4)
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "tenants", serve.DefaultTenant)
	if _, err := os.Stat(filepath.Join(dir, specFile+".tmp")); err == nil {
		t.Fatal("tenant.json staging file left behind")
	}

	// The flat layout held the same three entries one level up.
	for _, sub := range []string{"wal", "checkpoints", specFile} {
		if err := os.Rename(filepath.Join(dir, sub), filepath.Join(root, sub)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(filepath.Join(root, "tenants")); err != nil {
		t.Fatal(err)
	}
	err := New(durableOptions(clk, root)).Boot(specs)
	if err == nil || !strings.Contains(err.Error(), "mv "+root+"/wal") || !strings.Contains(err.Error(), dir) {
		t.Fatalf("flat-layout Boot = %v, want a refusal naming the move into %s", err, dir)
	}
	if _, serr := os.Stat(filepath.Join(root, "tenants")); serr == nil {
		t.Fatal("refused Boot created tenants/ next to the flat layout")
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"wal", "checkpoints", specFile} {
		if err := os.Rename(filepath.Join(root, sub), filepath.Join(dir, sub)); err != nil {
			t.Fatal(err)
		}
	}
	reg = New(durableOptions(clk, root))
	if err := reg.Boot(specs); err != nil {
		t.Fatal(err)
	}
	defer reg.Close(context.Background())
	tn, _ := reg.Get("")
	if rst := tn.RestoreStats(); rst.Sessions != 1 || !rst.CleanSeal {
		t.Fatalf("after the move: %+v, want 1 session from a clean seal", rst)
	}
}
