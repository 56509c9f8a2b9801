package feed

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/wal"
)

// posSource is a positioned source whose position a test sets by hand,
// so every commit records a distinct offset.
type posSource struct{ pos FilePos }

func (s *posSource) Next(context.Context) (session.Operation, error) {
	return session.Operation{}, io.EOF
}
func (s *posSource) Close() error           { return nil }
func (s *posSource) Pos() FilePos           { return s.pos }
func (s *posSource) SeekTo(p FilePos) error { s.pos = p; return nil }

// commitFeeder is a feeder a test drives by hand (sess.Event, commit)
// over the checkpoint store in dir.
func commitFeeder(tb testing.TB, dir string, idle time.Duration) (*Feeder, *posSource) {
	tb.Helper()
	src := &posSource{}
	f, err := NewFeeder(FeederConfig{Source: src, Deliver: &ServiceDeliverer{}, CheckpointPath: dir, Idle: idle})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.closeStore)
	return f, src
}

// forceSnapshot makes f's next commit a snapshot whatever its log size.
func forceSnapshot(f *Feeder) { f.logBytes = math.MaxInt64 }

func stampAt(f *Feeder, client string, ts time.Time) {
	f.sess.Event("", session.Operation{SessionID: client, SQL: "SELECT 1", Time: ts})
}

func mustLoad(tb testing.TB, dir string) Checkpoint {
	tb.Helper()
	cp, ok, err := LoadCheckpoint(dir)
	if err != nil || !ok {
		tb.Fatalf("LoadCheckpoint(%s): ok=%v err=%v", dir, ok, err)
	}
	return cp
}

func copyDir(tb testing.TB, src, dst string) {
	tb.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// activeSegment is the path of the store's highest-sequence segment.
func activeSegment(tb testing.TB, dir string) string {
	tb.Helper()
	seqs, err := wal.ListSegmentSeqs(dir, "wal-")
	if err != nil || len(seqs) == 0 {
		tb.Fatalf("no segment in %s: %v", dir, err)
	}
	return filepath.Join(dir, wal.SegmentFileName("wal-", seqs[len(seqs)-1]))
}

func snapshotSeqs(tb testing.TB, dir string) []uint64 {
	tb.Helper()
	seqs, err := wal.ListSnapshotSeqs(dir, "snap-")
	if err != nil {
		tb.Fatal(err)
	}
	return seqs
}

// TestCheckpointCrashMatrix cuts the checkpoint store at every point a
// crash can leave it and checks LoadCheckpoint lands on a committed
// state: the last delta torn at every byte gives the previous commit's
// state; a crash inside a snapshot gives the state before it (between
// Rotate and the rename) or the snapshot's own (after the rename,
// before the prune); a bit-flipped newest snapshot falls back to the
// older one plus the longer suffix and resumes the same way.
func TestCheckpointCrashMatrix(t *testing.T) {
	const idle = time.Minute
	dir := filepath.Join(t.TempDir(), "feed.ckpt")
	f, src := commitFeeder(t, dir, idle)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	states := []Checkpoint{{}}
	commit := func(clients []string, ts time.Time) {
		t.Helper()
		for _, c := range clients {
			stampAt(f, c, ts)
		}
		src.pos.Offset += int64(100 * len(clients))
		if err := f.commit(); err != nil {
			t.Fatal(err)
		}
		states = append(states, mustLoad(t, dir))
	}
	many := make([]string, 100)
	for i := range many {
		many[i] = fmt.Sprintf("c%d", i)
	}
	few := many[:10]

	// Commits 1-5 stay inside one idle window; snapshots S1 and S2 hold
	// all 100 clients. Commit 6 comes three windows later: its snapshot
	// S3 sweeps c10..c99 and its prune deletes S1 and the segments
	// before S2. Commits 7 and 8 are deltas.
	commit(many, t0)
	forceSnapshot(f)
	commit(few, t0.Add(time.Second))
	commit(few, t0.Add(2*time.Second))
	forceSnapshot(f)
	commit(many[50:60], t0.Add(3*time.Second))
	commit(few, t0.Add(4*time.Second))
	pre := filepath.Join(t.TempDir(), "pre")
	copyDir(t, dir, pre)
	later := t0.Add(3 * idle)
	forceSnapshot(f)
	commit(few, later)
	post := filepath.Join(t.TempDir(), "post")
	copyDir(t, dir, post)
	commit(few, later.Add(time.Second))
	segBefore, err := os.Stat(activeSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	commit([]string{"c0", "c200"}, later.Add(2*time.Second))
	if n := len(states[8].Sessions); n != 11 {
		t.Fatalf("final state holds %d sessions, want 11 (S3 swept the stale 90)", n)
	}
	if n := len(snapshotSeqs(t, pre)) + len(snapshotSeqs(t, post)); n != 4 {
		t.Fatalf("snapshots before/after S3: %d in all, want S1 S2 then S2 S3", n)
	}

	// The last delta, torn at every byte.
	torn := filepath.Join(t.TempDir(), "torn")
	copyDir(t, dir, torn)
	seg := activeSegment(t, torn)
	end, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustLoad(t, torn); !reflect.DeepEqual(got, states[8]) {
		t.Fatalf("whole log: %+v, want commit 8 %+v", got, states[8])
	}
	for cut := end.Size() - 1; cut >= segBefore.Size(); cut-- {
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		if got := mustLoad(t, torn); !reflect.DeepEqual(got, states[7]) {
			t.Fatalf("last delta cut at byte %d of %d: %+v, want commit 7 %+v", cut, end.Size(), got, states[7])
		}
	}

	// Crash between Rotate and the snapshot's rename: a real rotation on
	// the pre-snapshot files, plus the rename's leftover temp file.
	rot := filepath.Join(t.TempDir(), "rotated")
	copyDir(t, pre, rot)
	st, err := wal.OpenStore(rot, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := st.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	tmp := filepath.Join(rot, "."+wal.SnapshotFileName("snap-", anchor)+".tmp-1")
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mustLoad(t, rot); !reflect.DeepEqual(got, states[5]) {
		t.Fatalf("crash before the snapshot rename: %+v, want commit 5 %+v", got, states[5])
	}

	// Crash after the rename, before the prune: every file either side
	// of the snapshot.
	unpruned := filepath.Join(t.TempDir(), "unpruned")
	copyDir(t, pre, unpruned)
	copyDir(t, post, unpruned)
	if got := mustLoad(t, unpruned); !reflect.DeepEqual(got, states[6]) {
		t.Fatalf("crash before the prune: %+v, want commit 6 %+v", got, states[6])
	}

	// Bit-flipped newest snapshot: S2 plus every delta since. The swept
	// clients come back, stale, and must resume exactly as absent ones.
	flipped := filepath.Join(t.TempDir(), "flipped")
	copyDir(t, dir, flipped)
	snaps := snapshotSeqs(t, flipped)
	if len(snaps) != 2 {
		t.Fatalf("store holds snapshots %v, want S2 and S3", snaps)
	}
	newest := filepath.Join(flipped, wal.SnapshotFileName("snap-", snaps[1]))
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got := mustLoad(t, flipped)
	want := states[8]
	if got.Pos != want.Pos || got.Epoch != want.Epoch || len(got.Sessions) != 101 {
		t.Fatalf("fallback: pos %+v epoch %d sessions %d, want %+v %d and all 101 clients",
			got.Pos, got.Epoch, len(got.Sessions), want.Pos, want.Epoch)
	}
	for c, w := range want.Sessions {
		if got.Sessions[c] != w {
			t.Fatalf("fallback %s: %+v, want %+v", c, got.Sessions[c], w)
		}
	}
	// Late records (event time inside the stale clients' idle window,
	// but behind the stream clock) are where a stale entry could differ
	// from an absent one.
	next := make([]session.Operation, 0, len(many)+1)
	for i, c := range append(many, "c300") {
		next = append(next, session.Operation{SessionID: c, SQL: "q", Time: t0.Add(40*time.Second + time.Duration(i)*time.Millisecond)})
	}
	if g, w := stamps(got, idle, next), stamps(want, idle, next); !reflect.DeepEqual(g, w) {
		t.Fatalf("fallback state stamps differently from the committed one:\n got %v\nwant %v", g, w)
	}
}

// label is the (Epoch, Seq) pair the serving layer dedupes on.
type label struct{ epoch, seq int64 }

// stamps restores a sessionizer from cp as a restarting feeder does and
// stamps ops on it.
func stamps(cp Checkpoint, idle time.Duration, ops []session.Operation) []label {
	z := NewSessionizer(idle, nil)
	z.Restore(cp.Sessions)
	z.SetEpoch(cp.Epoch)
	out := make([]label, len(ops))
	for i, op := range ops {
		ev := z.Event("", op)
		out[i] = label{ev.Epoch, ev.Seq}
	}
	return out
}

// TestResumeStampsLikeLiveSessionizer is the differential check behind
// deltas without deletions: over a random stream (hundreds of clients,
// idle gaps, out-of-order records, sweeps at natural and forced
// snapshots) a feeder restored from disk after any commit stamps the
// next K operations exactly as the uninterrupted one did — including
// clients the live feeder swept in that window and the restored one
// still holds stale.
func TestResumeStampsLikeLiveSessionizer(t *testing.T) {
	const (
		idle    = time.Minute
		clients = 600
		ops     = 6000
		k       = 200
	)
	rng := rand.New(rand.NewSource(7))
	clk := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	stream := make([]session.Operation, ops)
	for i := range stream {
		if rng.Float64() < 0.003 {
			clk = clk.Add(2 * idle) // an idle gap: every session goes stale
		}
		clk = clk.Add(time.Duration(rng.Int63n(int64(1200 * time.Millisecond))))
		ts := clk
		if rng.Float64() < 0.1 {
			ts = ts.Add(-time.Duration(rng.Int63n(int64(idle / 2)))) // out of order
		}
		c := rng.Intn(40)
		if rng.Float64() < 0.3 {
			c = rng.Intn(clients)
		}
		stream[i] = session.Operation{SessionID: fmt.Sprintf("c%d", c), SQL: "q", Time: ts}
	}

	dir := filepath.Join(t.TempDir(), "feed.ckpt")
	f, src := commitFeeder(t, dir, idle)
	live := make([]label, ops)
	type commitPoint struct {
		at int
		cp Checkpoint
	}
	var points []commitPoint
	var snapshots, sweeps int
	for i := 0; i < ops; {
		for n := 1 + rng.Intn(64); n > 0 && i < ops; n-- {
			ev := f.sess.Event("", stream[i])
			live[i] = label{ev.Epoch, ev.Seq}
			i++
		}
		if rng.Float64() < 0.05 {
			forceSnapshot(f)
		}
		held, logged := len(f.sess.state), f.logBytes
		src.pos.Offset = int64(i)
		if err := f.commit(); err != nil {
			t.Fatal(err)
		}
		if f.logBytes < logged {
			snapshots++
		}
		if len(f.sess.state) < held {
			sweeps++
		}
		cp := mustLoad(t, dir)
		if cp.Epoch != f.sess.Epoch() || cp.Pos.File.Offset != int64(i) {
			t.Fatalf("commit at op %d loads epoch %d offset %d, want %d %d", i, cp.Epoch, cp.Pos.File.Offset, f.sess.Epoch(), i)
		}
		points = append(points, commitPoint{i, cp})
	}
	if snapshots < 5 || sweeps < 3 {
		t.Fatalf("stream too tame: %d snapshots, %d sweeps that dropped clients", snapshots, sweeps)
	}
	for _, p := range points {
		end := min(p.at+k, ops)
		got := stamps(p.cp, idle, stream[p.at:end])
		for j, l := range got {
			if l != live[p.at+j] {
				op := stream[p.at+j]
				t.Fatalf("restored after op %d: op %d (%s at %s) stamped %+v, the live feeder %+v",
					p.at, p.at+j, op.SessionID, op.Time.Format(time.RFC3339Nano), l, live[p.at+j])
			}
		}
	}
}

// TestRestoreRecoversStreamClock is the directed case of the above: the
// client holding the stream clock receives a late record, and a restore
// right then must still recover the clock, or a stale client looks live.
func TestRestoreRecoversStreamClock(t *testing.T) {
	const idle = time.Minute
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	op := func(c string, at time.Duration) session.Operation {
		return session.Operation{SessionID: c, SQL: "q", Time: t0.Add(at)}
	}
	live := NewSessionizer(idle, nil)
	live.Event("", op("c1", 0))
	live.Event("", op("c2", 70*time.Second)) // the stream clock; c1 is now stale
	live.Event("", op("c2", 20*time.Second)) // late record for the clock's holder
	cp := Checkpoint{Sessions: live.Export(), Epoch: live.Epoch()}
	next := []session.Operation{op("c1", 30*time.Second), op("c2", 75*time.Second)}
	var want []label
	for _, o := range next {
		ev := live.Event("", o)
		want = append(want, label{ev.Epoch, ev.Seq})
	}
	if got := stamps(cp, idle, next); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored sessionizer stamps %v, live %v", got, want)
	}
}

// TestCommitRecordsOnlyTouchedClients pins the per-batch cost: with
// 10 000 restored sessions a one-client batch appends one record that
// names one session, and writes no snapshot.
func TestCommitRecordsOnlyTouchedClients(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed.ckpt")
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	seed, _ := commitFeeder(t, dir, 0)
	for i := 0; i < 10000; i++ {
		stampAt(seed, fmt.Sprintf("c%d", i), t0)
	}
	forceSnapshot(seed)
	if err := seed.commit(); err != nil {
		t.Fatal(err)
	}
	seed.closeStore()

	f, _ := commitFeeder(t, dir, 0)
	if err := f.restore(); err != nil {
		t.Fatal(err)
	}
	if n := len(f.sess.state); n != 10000 {
		t.Fatalf("restored %d sessions, want 10000", n)
	}
	snaps := snapshotSeqs(t, dir)
	stampAt(f, "c42", t0.Add(time.Second))
	if err := f.commit(); err != nil {
		t.Fatal(err)
	}
	if after := snapshotSeqs(t, dir); !reflect.DeepEqual(after, snaps) {
		t.Fatalf("a one-client commit wrote a snapshot: %v -> %v", snaps, after)
	}
	var recs [][]byte
	if _, err := wal.ReplaySegmentFile(activeSegment(t, dir), func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("log holds %d records after one commit, want 1", len(recs))
	}
	var d Checkpoint
	if err := json.Unmarshal(recs[0], &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Sessions) != 1 || d.Sessions["c42"].Seq != 2 {
		t.Fatalf("delta record %s, want c42 alone at seq 2", recs[0])
	}
	if len(recs[0]) > 256 {
		t.Fatalf("one-client delta is %d bytes", len(recs[0]))
	}
}

// TestCheckpointRefusesLegacyFile: a single-file checkpoint at
// CheckpointPath (the format before the store) stops Run with an error
// naming the path, and is left as it was — never read as a fresh start.
func TestCheckpointRefusesLegacyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feed.ckpt")
	old := []byte(`{"pos":{"kind":"none"},"sessions":{"c1":{"epoch":1,"seq":3,"last":"2026-01-01T00:00:00Z"}},"epoch":1}`)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := NewFeeder(FeederConfig{Source: unpositionedSource{}, Deliver: &ServiceDeliverer{}, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background()); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Run over a legacy checkpoint file: %v, want a refusal naming %s", err, path)
	}
	if _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("LoadCheckpoint read a legacy checkpoint file")
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != string(old) {
		t.Fatalf("legacy checkpoint changed: %q, %v", b, err)
	}
}
