package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// replayAll opens a store on dir and collects every replayed record.
func replayAll(t *testing.T, dir string, opt Options) (snapshot []byte, records [][]byte, st RecoverStats) {
	t.Helper()
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err = s.Recover(
		func(b []byte) error { snapshot = append([]byte(nil), b...); return nil },
		func(b []byte) error { records = append(records, append([]byte(nil), b...)); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot, records, st
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%03d payload with some bytes", i))
	}
	return out
}

func TestLogAppendReplayRoundtrip(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{Sync: sync, SyncInterval: time.Millisecond}
			l, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := payloads(20)
			for _, p := range want {
				if err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, got, st := replayAll(t, dir, opt)
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
			if st.TornTail {
				t.Fatal("clean close reported a torn tail")
			}
		})
	}
}

func TestLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 128, Sync: SyncNever}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(40)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Seq() < 2 {
		t.Fatalf("no rotation happened: seq=%d", l.Seq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir, defaultSegmentPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 2 {
		t.Fatalf("expected multiple segments, got %v", seqs)
	}
	_, got, _ := replayAll(t, dir, opt)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch after rotation", i)
		}
	}
}

// TestCrashMatrixTornTail is the crash-recovery property test: a log
// with N records whose last segment is truncated at EVERY byte offset
// within its final record must recover to exactly the N-1 record
// prefix — never an error, never a phantom record.
func TestCrashMatrixTornTail(t *testing.T) {
	src := t.TempDir()
	opt := Options{Sync: SyncNever}
	l, err := Open(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(8)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(src, segmentName(defaultSegmentPrefix, 1))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := recordHeaderSize + len(want[len(want)-1])
	lastStart := len(whole) - lastLen

	for cut := lastStart; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(defaultSegmentPrefix, 1)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, st := replayAll(t, dir, opt)
		if len(got) != len(want)-1 {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), len(want)-1)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut=%d: record %d corrupted by recovery", cut, i)
			}
		}
		if cut > lastStart && !st.TornTail {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		// Open already truncated the torn tail; the log must accept new
		// appends on the clean boundary.
		l2, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if err := l2.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, got2, _ := replayAll(t, dir, opt)
		if len(got2) != len(want) || string(got2[len(got2)-1]) != "post-crash" {
			t.Fatalf("cut=%d: post-recovery append not replayed (%d records)", cut, len(got2))
		}
	}
}

// TestCrashMatrixBitFlip: flipping any single bit of the final record
// must likewise drop exactly that record.
func TestCrashMatrixBitFlip(t *testing.T) {
	src := t.TempDir()
	opt := Options{Sync: SyncNever}
	l, err := Open(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(4)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(src, segmentName(defaultSegmentPrefix, 1)))
	if err != nil {
		t.Fatal(err)
	}
	lastStart := len(whole) - (recordHeaderSize + len(want[len(want)-1]))
	for off := lastStart; off < len(whole); off++ {
		dir := t.TempDir()
		mut := append([]byte(nil), whole...)
		mut[off] ^= 0x40
		if err := os.WriteFile(filepath.Join(dir, segmentName(defaultSegmentPrefix, 1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, _ := replayAll(t, dir, opt)
		// A flipped length byte can shrink the record into a shorter
		// valid-length frame, but the checksum must still reject it.
		if len(got) != len(want)-1 {
			t.Fatalf("off=%d: recovered %d records, want %d", off, len(got), len(want)-1)
		}
	}
}

func TestStoreSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever, SegmentBytes: 256}
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	pre := payloads(10)
	for _, p := range pre {
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte(`{"open":10}`)
	if err := s.Snapshot(state); err != nil {
		t.Fatal(err)
	}
	post := payloads(5)
	for i, p := range post {
		post[i] = append([]byte("post-"), p...)
		if err := s.Append(post[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap, got, st := replayAll(t, dir, opt)
	// Pre-snapshot segments must be gone (compaction).
	seqs, err := listSegments(dir, defaultSegmentPrefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if seq < st.SnapshotSeq {
			t.Fatalf("segment %d survived compaction (snapshot anchor %d)", seq, st.SnapshotSeq)
		}
	}
	if !bytes.Equal(snap, state) {
		t.Fatalf("snapshot payload %q, want %q", snap, state)
	}
	if st.SnapshotSeq == 0 {
		t.Fatal("recovery did not anchor to a snapshot")
	}
	if len(got) != len(post) {
		t.Fatalf("replayed %d post-snapshot records, want %d", len(got), len(post))
	}
	for i := range post {
		if !bytes.Equal(got[i], post[i]) {
			t.Fatalf("post-snapshot record %d mismatch", i)
		}
	}
}

// TestStoreCrashBetweenRotateAndCommit: a snapshot that rotated but
// never committed must fall back to the previous snapshot (or empty
// state) and replay everything after it.
func TestStoreCrashBetweenRotateAndCommit(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever}
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(6)
	for _, p := range want[:4] {
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.BeginSnapshot(); err != nil { // crash before CommitSnapshot
		t.Fatal(err)
	}
	for _, p := range want[4:] {
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, got, st := replayAll(t, dir, opt)
	if snap != nil || st.SnapshotSeq != 0 {
		t.Fatalf("phantom snapshot recovered: %q (seq %d)", snap, st.SnapshotSeq)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want all %d", len(got), len(want))
	}
}

// TestStoreCorruptSnapshotFallsBack: a snapshot whose bytes rot must be
// skipped in favor of the older one, with the longer WAL suffix
// replayed on top.
func TestStoreCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever}
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	// Second snapshot, then corrupt it in place. Pruning retains the
	// previous snapshot AND every segment since its anchor, so recovery
	// must skip the rotten snapshot, restore "good", and replay the full
	// suffix — landing on the same current state.
	seq, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CommitSnapshot(seq, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(defaultSnapshotPrefix, seq))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, got, _ := replayAll(t, dir, opt)
	if string(snap) == "newer" {
		t.Fatal("corrupt snapshot was restored")
	}
	if string(snap) != "good" {
		t.Fatalf("fallback restored %q, want %q", snap, "good")
	}
	// Only records after the good snapshot's anchor that still exist on
	// disk replay; "c" (after the corrupt snapshot) must be among them.
	found := false
	for _, r := range got {
		if string(r) == "c" {
			found = true
		}
	}
	if !found {
		t.Fatal("record appended after the corrupt snapshot was lost")
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("content %q, want v1", b)
	}
	// A failing write callback must leave the previous file intact and
	// no temp litter behind.
	err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return io.ErrUnexpectedEOF
	})
	if err == nil {
		t.Fatal("error from write callback was swallowed")
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("failed write clobbered target: %q", b)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file leaked: %s", e.Name())
		}
	}
}

func TestCheckpointsSaveRetainRollback(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpoints(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Current() != "" {
		t.Fatal("fresh checkpoint dir has a current")
	}
	save := func(content string) string {
		t.Helper()
		p, err := c.Save(func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := save("one")
	p2 := save("two")
	p3 := save("three")
	if c.Current() != p3 {
		t.Fatalf("current %q, want %q", c.Current(), p3)
	}
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Fatal("retain bound did not evict the oldest checkpoint")
	}
	if c.Count() != 2 {
		t.Fatalf("history length %d, want 2", c.Count())
	}

	// Reopen reads the manifest back.
	c2, err := OpenCheckpoints(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Current() != p3 {
		t.Fatalf("reopened current %q, want %q", c2.Current(), p3)
	}

	// Rollback drops the bad head and lands on the previous checkpoint.
	prev, err := c2.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if prev != p2 {
		t.Fatalf("rollback landed on %q, want %q", prev, p2)
	}
	if b, _ := os.ReadFile(prev); string(b) != "two" {
		t.Fatalf("rollback target content %q, want two", b)
	}
	if _, err := os.Stat(p3); !os.IsNotExist(err) {
		t.Fatal("rolled-back checkpoint file not deleted")
	}
	// Rolling back past the history empties it.
	if p, err := c2.Rollback(); err != nil || p != "" {
		t.Fatalf("final rollback = %q, %v; want empty", p, err)
	}
	if p, err := c2.Rollback(); err != nil || p != "" {
		t.Fatalf("rollback on empty history = %q, %v; want empty", p, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("roundtrip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestLogInstrumentationHooks(t *testing.T) {
	dir := t.TempDir()
	var appends, appendBytes, syncs int
	opt := Options{
		Sync:     SyncAlways,
		OnAppend: func(n int) { appends++; appendBytes += n },
		OnSync:   func(time.Duration) { syncs++ },
	}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := []byte("hello")
	if err := l.Append(p); err != nil {
		t.Fatal(err)
	}
	if appends != 1 || appendBytes != recordHeaderSize+len(p) {
		t.Fatalf("OnAppend saw %d appends / %d bytes", appends, appendBytes)
	}
	if syncs != 1 {
		t.Fatalf("Append under SyncAlways fsynced %d times, want 1", syncs)
	}
	// The deferred path: writes alone never fsync, a dirty Commit fsyncs
	// exactly once whatever the group size, a clean one not at all.
	for i := 0; i < 3; i++ {
		if err := l.AppendDeferred(p); err != nil {
			t.Fatal(err)
		}
	}
	if appends != 4 || syncs != 1 {
		t.Fatalf("after 3 deferred writes: %d appends, %d fsyncs; want 4, 1", appends, syncs)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("dirty Commit fsynced %d times in total, want 2", syncs)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("clean Commit fsynced (total %d, want 2)", syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("Close of a clean log fsynced (total %d, want 2)", syncs)
	}
	if l.Append(p) != ErrClosed || l.AppendDeferred(p) != ErrClosed || l.Commit() != ErrClosed {
		t.Fatal("append/commit after Close did not fail with ErrClosed")
	}

	// Commit is SyncAlways's durability point only: the other policies
	// never fsync there (the interval is far beyond the test's lifetime).
	for _, pol := range []SyncPolicy{SyncInterval, SyncNever} {
		syncs = 0
		l, err := Open(t.TempDir(), Options{Sync: pol, SyncInterval: time.Hour, OnSync: opt.OnSync})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendDeferred(p); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if syncs != 0 {
			t.Fatalf("%v: Commit fsynced %d times, want 0", pol, syncs)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashMatrixDeferredBatch is the crash matrix of a commit group: a
// log holding committed records followed by a batch written through
// AppendDeferred and never committed is cut at EVERY byte offset inside
// the batch. Recovery must yield the committed records plus a
// whole-record prefix of the batch — never an error, never a partial or
// phantom record — and report a torn tail exactly when the cut falls
// inside a record. Nothing of the batch is required to survive: no
// fsync covered it, and the cut at its first byte recovers none of it.
func TestCrashMatrixDeferredBatch(t *testing.T) {
	src := t.TempDir()
	syncs := 0
	opt := Options{Sync: SyncAlways, OnSync: func(time.Duration) { syncs++ }}
	l, err := Open(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := payloads(8)
	const committed = 3
	for _, p := range want[:committed] {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range want[committed:] {
		if err := l.AppendDeferred(p); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != committed {
		t.Fatalf("%d fsyncs after %d committed + %d deferred records: the batch must not be durable yet",
			syncs, committed, len(want)-committed)
	}
	seg, err := os.ReadFile(filepath.Join(src, segmentName(defaultSegmentPrefix, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the offset just past record i.
	ends := make([]int, len(want))
	off := 0
	for i, p := range want {
		off += recordHeaderSize + len(p)
		ends[i] = off
	}
	if off != len(seg) {
		t.Fatalf("segment holds %d bytes, records add up to %d", len(seg), off)
	}

	opt.OnSync = nil
	for cut := ends[committed-1]; cut <= len(seg); cut++ {
		intact, boundary := 0, false
		for _, e := range ends {
			if e <= cut {
				intact++
			}
			boundary = boundary || e == cut
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(defaultSegmentPrefix, 1)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, st := replayAll(t, dir, opt)
		if len(got) != intact {
			t.Fatalf("cut=%d: recovered %d records, want the %d whole ones", cut, len(got), intact)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut=%d: record %d is not the record written at that position", cut, i)
			}
		}
		if st.TornTail == boundary {
			t.Fatalf("cut=%d (record boundary: %v): TornTail=%v", cut, boundary, st.TornTail)
		}
	}
}
