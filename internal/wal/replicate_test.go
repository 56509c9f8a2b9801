package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fillStream opens a store with a tiny segment cap, appends enough
// records to rotate a few times, snapshots once mid-way, and closes.
func fillStream(t *testing.T, dir string, opt Options) {
	t.Helper()
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Append([]byte(fmt.Sprintf("rec-%03d", i))); err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			if err := s.Snapshot([]byte("snapshot-at-10")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSealedStreamFilesExcludesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 64, Sync: SyncNever}
	fillStream(t, dir, opt)
	if err := SaveManifest(dir, Manifest{Version: ManifestVersion, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	// Drop a staging temp file: it must never ship.
	if err := os.WriteFile(filepath.Join(dir, "snap-999.snap.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	segs, err := ListSegmentSeqs(dir, "wal-")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments to make the test meaningful, got %d", len(segs))
	}
	activeName := SegmentFileName("wal-", segs[len(segs)-1])

	files, err := SealedStreamFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StreamFile{}
	for _, f := range files {
		byName[f.Name] = f
	}
	if _, ok := byName[activeName]; ok {
		t.Fatalf("active segment %s must not be listed", activeName)
	}
	for _, seq := range segs[:len(segs)-1] {
		name := SegmentFileName("wal-", seq)
		if _, ok := byName[name]; !ok {
			t.Fatalf("sealed segment %s missing from listing %v", name, files)
		}
	}
	mf, ok := byName[ManifestName]
	if !ok || !mf.Mutable {
		t.Fatalf("manifest missing or not mutable: %+v", byName)
	}
	snaps, err := ListSnapshotSeqs(dir, "snap-")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("want a snapshot, got %v err=%v", snaps, err)
	}
	if _, ok := byName[SnapshotFileName("snap-", snaps[0])]; !ok {
		t.Fatalf("snapshot missing from listing %v", files)
	}
	if _, ok := byName["snap-999.snap.tmp"]; ok {
		t.Fatal("temp file must not be listed")
	}
	for _, f := range files {
		fi, err := os.Stat(filepath.Join(dir, f.Name))
		if err != nil || fi.Size() != f.Size {
			t.Fatalf("size mismatch for %s: %+v vs %v (%v)", f.Name, f.Size, fi, err)
		}
	}
}

func TestVerifyStreamFile(t *testing.T) {
	dir := t.TempDir()
	fillStream(t, dir, Options{SegmentBytes: 64, Sync: SyncNever})
	files, err := SealedStreamFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := VerifyStreamFile(f.Name, filepath.Join(dir, f.Name)); err != nil {
			t.Fatalf("verify %s: %v", f.Name, err)
		}
	}

	// A truncated sealed segment must fail verification.
	segs, _ := ListSegmentSeqs(dir, "wal-")
	segPath := filepath.Join(dir, SegmentFileName("wal-", segs[0]))
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), SegmentFileName("wal-", 1))
	if err := os.WriteFile(torn, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegmentFile(torn); err == nil {
		t.Fatal("truncated segment passed verification")
	}
	// A bit flip must fail too.
	flip := append([]byte(nil), b...)
	flip[len(flip)-1] ^= 0x40
	if err := os.WriteFile(torn, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegmentFile(torn); err == nil {
		t.Fatal("corrupt segment passed verification")
	}
	// A corrupt snapshot must fail.
	snaps, _ := ListSnapshotSeqs(dir, "snap-")
	sb, err := os.ReadFile(filepath.Join(dir, SnapshotFileName("snap-", snaps[0])))
	if err != nil {
		t.Fatal(err)
	}
	sb[len(sb)-1] ^= 0x01
	badSnap := filepath.Join(t.TempDir(), SnapshotFileName("snap-", 1))
	if err := os.WriteFile(badSnap, sb, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshotFile(badSnap); err == nil {
		t.Fatal("corrupt snapshot passed verification")
	}
}

// TestRestoreStreamMatchesRecover replays a copied directory read-only
// and checks it converges on the same state Store.Recover rebuilds.
func TestRestoreStreamMatchesRecover(t *testing.T) {
	dir := t.TempDir()
	fillStream(t, dir, Options{SegmentBytes: 64, Sync: SyncNever})

	replayed := func(restoreStream bool) (snap string, recs []string) {
		if restoreStream {
			_, err := RestoreStream(dir, "wal-", "snap-",
				func(b []byte) error { snap = string(b); return nil },
				func(b []byte) error { recs = append(recs, string(b)); return nil })
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		s, err := OpenStore(dir, Options{SegmentBytes: 64, Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, err = s.Recover(
			func(b []byte) error { snap = string(b); return nil },
			func(b []byte) error { recs = append(recs, string(b)); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return
	}

	snapRO, recsRO := replayed(true)
	snapRW, recsRW := replayed(false)
	if snapRO != snapRW || !reflect.DeepEqual(recsRO, recsRW) {
		t.Fatalf("read-only restore diverged: snap %q vs %q, recs %v vs %v", snapRO, snapRW, recsRO, recsRW)
	}
	if snapRO == "" || len(recsRO) == 0 {
		t.Fatalf("restore saw nothing: snap=%q recs=%d", snapRO, len(recsRO))
	}
}

func TestSplitStreamNames(t *testing.T) {
	if p, seq, ok := SplitSegmentName("wal-shard-03-0000000000000007.log"); !ok || p != "wal-shard-03-" || seq != 7 {
		t.Fatalf("got %q %d %v", p, seq, ok)
	}
	if _, _, ok := SplitSnapshotName(RemapFile); ok {
		t.Fatal("remap.snap must not parse as a stream snapshot")
	}
	if _, _, ok := SplitSegmentName("MANIFEST.json"); ok {
		t.Fatal("manifest must not parse as a segment")
	}
}

// TestOpenStoreSkipsToSnapshotAnchor: a directory whose newest snapshot
// anchors ahead of every segment (the replicated-standby shape: the
// primary's post-anchor segments were active or pruned and never
// shipped) must not accept appends below the anchor — Recover would
// ignore them. OpenStore jumps the log to the anchor so post-promotion
// records stay visible.
func TestOpenStoreSkipsToSnapshotAnchor(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 64, Sync: SyncNever}
	// Only a shipped snapshot, anchored at seq 7.
	if err := WriteStateFile(filepath.Join(dir, snapshotName("snap-", 7)), []byte("state-at-7")); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.log.Seq(); got != 7 {
		t.Fatalf("active segment %d, want the snapshot anchor 7", got)
	}
	if err := s.Append([]byte("post-promotion")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var snap string
	var recs []string
	st, err := s2.Recover(
		func(b []byte) error { snap = string(b); return nil },
		func(b []byte) error { recs = append(recs, string(b)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotSeq != 7 || snap != "state-at-7" {
		t.Fatalf("recovered snapshot %d %q", st.SnapshotSeq, snap)
	}
	if len(recs) != 1 || recs[0] != "post-promotion" {
		t.Fatalf("recovered records %v, want the post-anchor append", recs)
	}
}
