package replica

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/wal"
)

// fakeTarget records everything the replayer feeds it.
type fakeTarget struct {
	resets    int
	snapshots []string
	records   []string
	swaps     int
	warms     int
}

func (t *fakeTarget) ReplicaReset() error {
	t.resets++
	t.snapshots, t.records = nil, nil
	return nil
}
func (t *fakeTarget) ReplicaRestoreSnapshot(p []byte) error {
	t.snapshots = append(t.snapshots, string(p))
	return nil
}
func (t *fakeTarget) ReplicaApplyRecord(p []byte) error {
	t.records = append(t.records, string(p))
	return nil
}
func (t *fakeTarget) SwapModel(u *core.UCAD) error { t.swaps++; return nil }
func (t *fakeTarget) WarmScoreCache() int          { t.warms++; return 0 }

// writeTenant builds a primary-side tenant directory under root: a
// spec, a one-shard WAL stream with n records (snapshot at snapAt, tiny
// segments so several seal), and a checkpoint directory.
func writeTenant(t *testing.T, root, id string, n, snapAt int) {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(filepath.Join(dir, walSubdir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, specFile), []byte(`{"id":"`+id+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, walSubdir)
	if err := wal.SaveManifest(walDir, wal.Manifest{Version: wal.ManifestVersion, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	appendTenant(t, root, id, 0, n, snapAt)
}

// appendTenant appends records [from, from+n) to the tenant's stream,
// snapshotting when crossing snapAt (absolute index; <0 disables).
func appendTenant(t *testing.T, root, id string, from, n, snapAt int) {
	t.Helper()
	walDir := filepath.Join(root, id, walSubdir)
	s, err := wal.OpenStore(walDir, wal.Options{
		SegmentBytes:   64,
		Sync:           wal.SyncNever,
		SegmentPrefix:  wal.ShardSegmentPrefix(0),
		SnapshotPrefix: wal.ShardSnapshotPrefix(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < from+n; i++ {
		if err := s.Append([]byte(fmt.Sprintf("rec-%03d", i))); err != nil {
			t.Fatal(err)
		}
		if i == snapAt {
			if err := s.Snapshot([]byte(fmt.Sprintf("snap-after-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// sealedExpectation replays the primary's currently sealed files the
// way a correct follower must: newest valid snapshot plus sealed
// segments from its anchor.
func sealedExpectation(t *testing.T, root, id string) (snaps, recs []string) {
	t.Helper()
	walDir := filepath.Join(root, id, walSubdir)
	seqs, err := wal.ListSegmentSeqs(walDir, wal.ShardSegmentPrefix(0))
	if err != nil {
		t.Fatal(err)
	}
	active := uint64(0)
	if len(seqs) > 0 {
		active = seqs[len(seqs)-1]
	}
	snapSeqs, err := wal.ListSnapshotSeqs(walDir, wal.ShardSnapshotPrefix(0))
	if err != nil {
		t.Fatal(err)
	}
	start := uint64(0)
	if len(snapSeqs) > 0 {
		newest := snapSeqs[len(snapSeqs)-1]
		b, err := wal.ReadStateFile(filepath.Join(walDir, wal.SnapshotFileName(wal.ShardSnapshotPrefix(0), newest)))
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, string(b))
		start = newest
	}
	for _, seq := range seqs {
		if seq >= active || seq < start {
			continue
		}
		_, err := wal.ReplaySegmentFile(filepath.Join(walDir, wal.SegmentFileName(wal.ShardSegmentPrefix(0), seq)),
			func(p []byte) error { recs = append(recs, string(p)); return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	return snaps, recs
}

func newTestFollower(t *testing.T, primaryURL, root string, targets map[string]*fakeTarget) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerConfig{
		PrimaryURL: primaryURL,
		Root:       root,
		Metrics:    NewMetrics(nil),
		OpenTarget: func(id, dir string) (Target, error) {
			ft := &fakeTarget{}
			targets[id] = ft
			return ft, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShipperEndpoints: the listing carries only durable immutable
// state (plus mutable manifests), and the fetch endpoint refuses
// traversal, unknown tenants, and the active segment.
func TestShipperEndpoints(t *testing.T) {
	root := t.TempDir()
	writeTenant(t, root, "t1", 12, 5)
	sh := &Shipper{Root: root, Metrics: NewMetrics(nil)}
	srv := httptest.NewServer(sh.Handler())
	defer srv.Close()

	get := func(p string) (int, string) {
		res, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		b, _ := io.ReadAll(res.Body)
		return res.StatusCode, string(b)
	}

	if code, body := get("/v1/replica/tenants"); code != 200 || !strings.Contains(body, `"t1"`) {
		t.Fatalf("tenants: %d %q", code, body)
	}
	code, body := get("/v1/replica/files?tenant=t1")
	if code != 200 {
		t.Fatalf("files: %d %q", code, body)
	}
	seqs, err := wal.ListSegmentSeqs(filepath.Join(root, "t1", walSubdir), wal.ShardSegmentPrefix(0))
	if err != nil || len(seqs) < 2 {
		t.Fatalf("want several segments, got %v (%v)", seqs, err)
	}
	activeName := wal.SegmentFileName(wal.ShardSegmentPrefix(0), seqs[len(seqs)-1])
	if strings.Contains(body, activeName) {
		t.Fatalf("listing ships the active segment %s: %s", activeName, body)
	}
	sealedName := wal.SegmentFileName(wal.ShardSegmentPrefix(0), seqs[0])
	if !strings.Contains(body, "wal/"+sealedName) {
		t.Fatalf("listing misses sealed segment %s: %s", sealedName, body)
	}
	if !strings.Contains(body, specFile) || !strings.Contains(body, wal.ManifestName) {
		t.Fatalf("listing misses spec/manifest: %s", body)
	}

	if code, _ := get("/v1/replica/file?tenant=t1&path=wal/" + activeName); code != http.StatusConflict {
		t.Fatalf("active segment fetch: %d, want 409", code)
	}
	if code, _ := get("/v1/replica/file?tenant=t1&path=wal/" + sealedName); code != 200 {
		t.Fatalf("sealed segment fetch: %d", code)
	}
	for _, bad := range []string{
		"/v1/replica/file?tenant=t1&path=../t1/tenant.json",
		"/v1/replica/file?tenant=t1&path=wal/../../secret",
		"/v1/replica/file?tenant=t1&path=/etc/passwd",
		"/v1/replica/file?tenant=..&path=tenant.json",
	} {
		if code, _ := get(bad); code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", bad, code)
		}
	}
	if code, _ := get("/v1/replica/files?tenant=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d, want 404", code)
	}
}

// TestShipperIgnoresFlatLayout: tenants/<id>/ is the only layout that
// ships. A spec and streams sitting at the data-dir root (the
// pre-tenant flat layout, which the registry refuses to boot) are
// neither listed nor reachable.
func TestShipperIgnoresFlatLayout(t *testing.T) {
	parent := t.TempDir()
	writeTenant(t, parent, "flatdata", 12, 5)
	sh := &Shipper{Root: filepath.Join(parent, "flatdata", "tenants")} // does not exist
	srv := httptest.NewServer(sh.Handler())
	defer srv.Close()

	res, err := http.Get(srv.URL + "/v1/replica/tenants")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if strings.TrimSpace(string(b)) != `{"tenants":[]}` {
		t.Fatalf("flat layout listed: %s", b)
	}
	res, err = http.Get(srv.URL + "/v1/replica/files?tenant=default")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("flat layout files: %d, want 404", res.StatusCode)
	}
}

// TestFollowerSyncReplayCatchUp: a full round mirrors exactly the
// sealed state, and later rounds replay only what sealed since —
// incremental catch-up, no duplicate application.
func TestFollowerSyncReplayCatchUp(t *testing.T) {
	root, standby := t.TempDir(), t.TempDir()
	writeTenant(t, root, "t1", 12, 5)
	sh := &Shipper{Root: root}
	srv := httptest.NewServer(sh.Handler())
	defer srv.Close()

	targets := map[string]*fakeTarget{}
	f := newTestFollower(t, srv.URL, standby, targets)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	ft := targets["t1"]
	if ft == nil {
		t.Fatal("tenant target never opened")
	}
	wantSnaps, wantRecs := sealedExpectation(t, root, "t1")
	if !reflect.DeepEqual(ft.snapshots, wantSnaps) || !reflect.DeepEqual(ft.records, wantRecs) {
		t.Fatalf("replayed state diverges:\n got %v %v\nwant %v %v", ft.snapshots, ft.records, wantSnaps, wantRecs)
	}
	firstCount := len(ft.records)

	// The primary moves on: more records, some of which seal.
	appendTenant(t, root, "t1", 12, 8, -1)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, wantRecs2 := sealedExpectation(t, root, "t1")
	if got := ft.records; !reflect.DeepEqual(got, wantRecs2) {
		t.Fatalf("after catch-up:\n got %v\nwant %v", got, wantRecs2)
	}
	if len(ft.records) <= firstCount {
		t.Fatalf("catch-up applied nothing (still %d records)", firstCount)
	}
	sorted := append([]string(nil), ft.records...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatalf("record %q applied twice", sorted[i])
		}
	}
	if ft.resets != 0 {
		t.Fatalf("catch-up forced %d rebuilds", ft.resets)
	}

	st := f.Status()
	if !st.PrimaryHealthy || st.Rounds != 2 || st.Errors != 0 {
		t.Fatalf("status: %+v", st)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].AppliedRecords != int64(len(ft.records)) {
		t.Fatalf("tenant status: %+v", st.Tenants)
	}
}

// TestFollowerRejectsCorruptShippedSegment: a segment mangled in flight
// fails CRC verification, is never installed, and the next clean round
// converges anyway.
func TestFollowerRejectsCorruptShippedSegment(t *testing.T) {
	root, standby := t.TempDir(), t.TempDir()
	writeTenant(t, root, "t1", 12, 5)
	sh := &Shipper{Root: root}

	corrupt := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if corrupt && r.URL.Path == "/v1/replica/file" && strings.HasSuffix(r.URL.Query().Get("path"), ".log") {
			rec := httptest.NewRecorder()
			sh.Handler().ServeHTTP(rec, r)
			b := rec.Body.Bytes()
			if len(b) > 5 {
				b = b[:len(b)-5] // torn in transfer
			}
			b[len(b)-1] ^= 0xff
			w.Write(b)
			return
		}
		sh.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	targets := map[string]*fakeTarget{}
	f := newTestFollower(t, srv.URL, standby, targets)
	if err := f.SyncOnce(context.Background()); err == nil {
		t.Fatal("corrupt segment accepted")
	}
	ents, _ := os.ReadDir(filepath.Join(standby, "tenants", "t1", walSubdir))
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".log") {
			t.Fatalf("corrupt segment %s installed locally", e.Name())
		}
	}
	if f.cfg.Metrics.verifyFailures.With("t1").Value() == 0 {
		t.Fatal("verify failure not counted")
	}

	corrupt = false
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantSnaps, wantRecs := sealedExpectation(t, root, "t1")
	ft := targets["t1"]
	if !reflect.DeepEqual(ft.snapshots, wantSnaps) || !reflect.DeepEqual(ft.records, wantRecs) {
		t.Fatalf("post-recovery state diverges:\n got %v %v\nwant %v %v", ft.snapshots, ft.records, wantSnaps, wantRecs)
	}
}

// TestReplayerGapRebuild: when the primary prunes past the follower's
// position, the next Apply detects the seq gap and rebuilds from the
// newest snapshot instead of silently skipping history.
func TestReplayerGapRebuild(t *testing.T) {
	root := t.TempDir()
	writeTenant(t, root, "t1", 12, 5)
	dir := filepath.Join(root, "t1")
	ft := &fakeTarget{}
	rp := NewReplayer(dir, ft)
	if _, err := rp.Apply(); err != nil {
		t.Fatal(err)
	}
	if ft.resets != 0 || len(ft.records) == 0 {
		t.Fatalf("bootstrap: resets=%d records=%d", ft.resets, len(ft.records))
	}

	// The primary races ahead with two snapshot cycles, pruning the
	// segments the replayer would have needed next.
	appendTenant(t, root, "t1", 12, 10, 16)
	appendTenant(t, root, "t1", 22, 10, 26)
	seqs, err := wal.ListSegmentSeqs(filepath.Join(dir, walSubdir), wal.ShardSegmentPrefix(0))
	if err != nil {
		t.Fatal(err)
	}
	if seqs[0] <= rp.next[0] {
		t.Fatalf("prune did not open a gap: oldest %d, next %d", seqs[0], rp.next[0])
	}
	ap, err := rp.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if !ap.Rebuilt || ft.resets != 1 {
		t.Fatalf("gap not rebuilt: %+v resets=%d", ap, ft.resets)
	}
	wantSnaps, wantRecs := sealedExpectation(t, root, "t1")
	if !reflect.DeepEqual(ft.snapshots, wantSnaps) || !reflect.DeepEqual(ft.records, wantRecs) {
		t.Fatalf("rebuild diverges:\n got %v %v\nwant %v %v", ft.snapshots, ft.records, wantSnaps, wantRecs)
	}
}

// TestReplayerMatchesRestore is the differential check on the one
// recovery path: a WAL directory holding a snapshot plus a suffix of
// event, close and rollback records is recovered once the way a
// restarting primary does (serve.Service.Restore) and once the way a
// standby does (Replayer.Apply into a durable service that has not gone
// live, then promotion). Open sessions and the session-id floor must be
// identical.
func TestReplayerMatchesRestore(t *testing.T) {
	u := trainTinyModel(t)
	now := time.Unix(1754000000, 0)
	clock := func() time.Time { return now }
	walOpt := func(dir string) *serve.DurabilityConfig {
		return &serve.DurabilityConfig{Dir: dir, Fsync: wal.SyncNever, SegmentBytes: 512}
	}
	cfg := func(walDir string) serve.Config {
		return serve.Config{Shards: 1, Workers: 1, SweepEvery: -1, IdleTimeout: time.Minute, Clock: clock, Durability: walOpt(walDir)}
	}
	ingest := func(s *serve.Service, client string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Ingest(serve.Event{ClientID: client, User: "app", SQL: fmt.Sprintf("SELECT * FROM t%d WHERE id = %d", i%4, i)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The writer: a snapshot mid-stream, then a suffix with appends to
	// old and new sessions and one idle close-out. It is abandoned
	// unclosed (a crash), so recovery has a real suffix to replay.
	src := filepath.Join(t.TempDir(), walSubdir)
	w := serve.NewService(u, cfg(src))
	if _, err := w.Restore(); err != nil {
		t.Fatal(err)
	}
	ingest(w, "c1", 5)
	ingest(w, "c2", 4)
	w.Drain()
	if err := w.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	ingest(w, "c1", 2)
	ingest(w, "c3", 3)
	w.Drain()
	if n := w.CloseIdleNow(); n != 1 { // c2 went idle: a "cl" record
		t.Fatalf("closed %d idle sessions, want 1", n)
	}
	ingest(w, "c4", 1)
	w.Drain()
	defer w.Stop()
	// Each copy then gets the suffix's last two records: a backpressure
	// rollback undid c3's last operation and c4's only one (which deletes
	// the session) — "rb" records, in the wire form serve logs them.
	copyDir := func(dst string) {
		t.Helper()
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		tail, err := wal.OpenStore(dst, wal.Options{
			Sync:           wal.SyncNever,
			SegmentPrefix:  wal.ShardSegmentPrefix(0),
			SnapshotPrefix: wal.ShardSnapshotPrefix(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, rb := range []string{
			`{"t":"rb","c":"c3","s":"c3#3","p":2,"ts":"0001-01-01T00:00:00Z"}`,
			`{"t":"rb","c":"c4","s":"c4#4","p":0,"ts":"0001-01-01T00:00:00Z"}`,
		} {
			if err := tail.Append([]byte(rb)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tail.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if seqs, _ := wal.ListSnapshotSeqs(src, wal.ShardSnapshotPrefix(0)); len(seqs) == 0 {
		t.Fatal("the writer left no snapshot to recover from")
	}

	// The id a brand-new client is given exposes the session-id floor.
	nextID := func(s *serve.Service) string {
		t.Helper()
		ingest(s, "fresh", 1)
		for _, ss := range s.ExportSessions() {
			if ss.Client == "fresh" {
				return ss.ID
			}
		}
		t.Fatal("fresh session not open")
		return ""
	}

	restartDir := filepath.Join(t.TempDir(), walSubdir)
	copyDir(restartDir)
	restarted := serve.NewService(u, cfg(restartDir))
	rst, err := restarted.Restore()
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close(context.Background())
	want := restarted.ExportSessions()

	tenantDir := t.TempDir()
	copyDir(filepath.Join(tenantDir, walSubdir))
	standby := serve.NewService(u, cfg(filepath.Join(tenantDir, walSubdir)))
	defer standby.Close(context.Background())
	ap, err := NewReplayer(tenantDir, standby).Apply()
	if err != nil {
		t.Fatal(err)
	}
	got := standby.ExportSessions()

	if len(want) != 2 || len(want[0].Ops) != 7 || len(want[1].Ops) != 2 || rst.SnapshotSeq == 0 {
		t.Fatalf("restart recovered %+v from snapshot %d + %d records; the fixture should leave c1 with 7 operations and c3 with 2",
			want, rst.SnapshotSeq, rst.Records)
	}
	if ap.Records != rst.Records {
		t.Fatalf("standby replayed %d records, restart %d", ap.Records, rst.Records)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("standby replay diverges from restart recovery:\n got %+v\nwant %+v", got, want)
	}
	if err := standby.PromoteToServing(); err != nil {
		t.Fatal(err)
	}
	if a, b := nextID(standby), nextID(restarted); a != b {
		t.Fatalf("session-id floors differ: promoted standby opens %q, restarted primary %q", a, b)
	}
}

// TestReplayerSwapsCheckpoint: a new current checkpoint swaps the model
// exactly once; an unchanged manifest swaps nothing.
func TestReplayerSwapsCheckpoint(t *testing.T) {
	root := t.TempDir()
	writeTenant(t, root, "t1", 4, -1)
	dir := filepath.Join(root, "t1")
	u := trainTinyModel(t)
	ck, err := wal.OpenCheckpoints(filepath.Join(dir, ckptSubdir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Save(u.Save); err != nil {
		t.Fatal(err)
	}

	ft := &fakeTarget{}
	rp := NewReplayer(dir, ft)
	ap, err := rp.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if !ap.Swapped || ft.swaps != 1 {
		t.Fatalf("first apply: %+v swaps=%d", ap, ft.swaps)
	}
	if ap, err = rp.Apply(); err != nil || ap.Swapped || ft.swaps != 1 {
		t.Fatalf("unchanged checkpoint swapped again: %+v swaps=%d err=%v", ap, ft.swaps, err)
	}
	if _, err := ck.Save(u.Save); err != nil {
		t.Fatal(err)
	}
	if ap, err = rp.Apply(); err != nil || !ap.Swapped || ft.swaps != 2 {
		t.Fatalf("new checkpoint not swapped: %+v swaps=%d err=%v", ap, ft.swaps, err)
	}
}

// TestFollowerAutoPromote: a continuously unreachable primary fires
// OnPrimaryDown exactly once after the configured outage.
func TestFollowerAutoPromote(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // dead from the start

	now := time.Unix(1754000000, 0)
	fired := 0
	f, err := NewFollower(FollowerConfig{
		PrimaryURL:       srv.URL,
		Root:             t.TempDir(),
		OpenTarget:       func(id, dir string) (Target, error) { return &fakeTarget{}, nil },
		AutoPromoteAfter: 10 * time.Second,
		OnPrimaryDown:    func() { fired++ },
		Clock:            func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync against dead primary succeeded")
	}
	if fired != 0 {
		t.Fatal("fired before the outage window elapsed")
	}
	now = now.Add(11 * time.Second)
	f.SyncOnce(context.Background())
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	now = now.Add(time.Minute)
	f.SyncOnce(context.Background())
	if fired != 1 {
		t.Fatalf("fired again: %d", fired)
	}
	if st := f.Status(); st.PrimaryHealthy || st.Errors != 3 {
		t.Fatalf("status: %+v", st)
	}
}

// TestFollowerRunCallbackMayStop: OnPrimaryDown's job is promotion,
// whose first steps are Stop and one final SyncOnce — from inside the
// callback Run itself invoked. Run must have left its loop by then (Stop
// waits for it), and the final sync must not fire the callback again.
func TestFollowerRunCallbackMayStop(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // dead from the start

	var f *Follower
	fired := make(chan struct{}, 2) // room for the double fire this guards against
	f, err := NewFollower(FollowerConfig{
		PrimaryURL:       srv.URL,
		Root:             t.TempDir(),
		Interval:         time.Millisecond,
		OpenTarget:       func(id, dir string) (Target, error) { return &fakeTarget{}, nil },
		AutoPromoteAfter: time.Nanosecond,
		OnPrimaryDown: func() {
			f.Stop()
			f.SyncOnce(context.Background())
			fired <- struct{}{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	go func() { f.Run(context.Background()); close(ran) }()
	for _, ch := range []chan struct{}{fired, ran} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock: Stop from OnPrimaryDown waits on the Run that is calling it")
		}
	}
	if len(fired) != 0 {
		t.Fatal("the callback's own final sync fired it again")
	}
}

// trainTinyModel builds the smallest deterministic detector (the serve
// test idiom) for checkpoint-swap tests.
func trainTinyModel(tb testing.TB) *core.UCAD {
	tb.Helper()
	var sessions []*session.Session
	for i := 0; i < 8; i++ {
		s := &session.Session{ID: fmt.Sprintf("train-%d", i), User: "app"}
		for p := 0; p < 10; p++ {
			s.Ops = append(s.Ops, session.Operation{SQL: fmt.Sprintf("SELECT * FROM t%d WHERE id = %d", (i+p)%4, p)})
		}
		sessions = append(sessions, s)
	}
	cfg := core.DefaultConfig()
	cfg.SkipClean = true
	cfg.Model.Hidden = 4
	cfg.Model.Heads = 2
	cfg.Model.Blocks = 1
	cfg.Model.Window = 6
	cfg.Model.Epochs = 1
	cfg.Model.Dropout = 0
	cfg.Model.MinContext = 2
	u, err := core.Train(cfg, sessions, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}
