package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frames encodes payloads as one segment image.
func frames(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = appendRecord(b, []byte(p))
	}
	return b
}

// writeStream lays a stream image down byte for byte: segments and
// snapshots keyed by sequence number under the default prefixes.
func writeStream(t *testing.T, dir string, segs, snaps map[uint64][]byte) {
	t.Helper()
	for seq, b := range segs {
		if err := os.WriteFile(filepath.Join(dir, segmentName(defaultSegmentPrefix, seq)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for seq, b := range snaps {
		if err := os.WriteFile(filepath.Join(dir, snapshotName(defaultSnapshotPrefix, seq)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverStreamTable drives the one recovery loop through every
// damage shape in both of its modes: restart (a torn tail on the last
// segment is the crash tail) and shipped (every file is sealed, any tear
// is an error). The restart rows are also run through OpenStore+Recover,
// the production entry, which must agree.
func TestRecoverStreamTable(t *testing.T) {
	torn := func(b []byte) []byte { return b[:len(b)-3] }
	rot := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		b[len(b)-1] ^= 0xff
		return b
	}
	type outcome struct {
		err      bool
		snap     string
		recs     []string
		tornTail bool
		anchor   uint64
	}
	cases := []struct {
		name             string
		segs, snaps      map[uint64][]byte
		restart, shipped outcome
	}{
		{
			name:    "torn tail on the last segment",
			segs:    map[uint64][]byte{1: frames("a", "b"), 2: torn(frames("c", "d"))},
			restart: outcome{recs: []string{"a", "b", "c"}, tornTail: true},
			shipped: outcome{err: true},
		},
		{
			name:    "tear in an earlier segment",
			segs:    map[uint64][]byte{1: torn(frames("a", "b")), 2: frames("c")},
			restart: outcome{err: true},
			shipped: outcome{err: true},
		},
		{
			name:    "corrupt newest snapshot falls back and replays the longer suffix",
			segs:    map[uint64][]byte{1: frames("a"), 2: frames("b"), 3: frames("c"), 4: frames("d")},
			snaps:   map[uint64][]byte{2: frames("old"), 4: rot(frames("new"))},
			restart: outcome{snap: "old", recs: []string{"b", "c", "d"}, anchor: 2},
			shipped: outcome{snap: "old", recs: []string{"b", "c", "d"}, anchor: 2},
		},
		{
			name:    "snapshot ahead of every segment",
			segs:    map[uint64][]byte{1: frames("a"), 2: frames("b")},
			snaps:   map[uint64][]byte{5: frames("s")},
			restart: outcome{snap: "s", anchor: 5},
			shipped: outcome{snap: "s", anchor: 5},
		},
	}
	for _, tc := range cases {
		check := func(t *testing.T, want outcome, run func(restore, replay func([]byte) error) (RecoverStats, error)) {
			t.Helper()
			var got outcome
			st, err := run(
				func(b []byte) error { got.snap = string(b); return nil },
				func(b []byte) error { got.recs = append(got.recs, string(b)); return nil })
			if want.err {
				if err == nil {
					t.Fatalf("recovered %v past the damage, want an error", got.recs)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got.tornTail, got.anchor = st.TornTail, st.SnapshotSeq
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %+v, want %+v", got, want)
			}
		}
		t.Run(tc.name+"/shipped", func(t *testing.T) {
			dir := t.TempDir()
			writeStream(t, dir, tc.segs, tc.snaps)
			check(t, tc.shipped, func(restore, replay func([]byte) error) (RecoverStats, error) {
				return RestoreStream(dir, defaultSegmentPrefix, defaultSnapshotPrefix, restore, replay)
			})
		})
		t.Run(tc.name+"/restart scan", func(t *testing.T) {
			dir := t.TempDir()
			writeStream(t, dir, tc.segs, tc.snaps)
			check(t, tc.restart, func(restore, replay func([]byte) error) (RecoverStats, error) {
				return recoverStream(dir, defaultSegmentPrefix, defaultSnapshotPrefix, true, restore, replay)
			})
		})
		t.Run(tc.name+"/restart store", func(t *testing.T) {
			dir := t.TempDir()
			writeStream(t, dir, tc.segs, tc.snaps)
			s, err := OpenStore(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			check(t, tc.restart, s.Recover)
			// The SkipTo case: appends after recovery must land at or after
			// the restored anchor, where the next recovery replays them.
			if seq := s.log.Seq(); seq < tc.restart.anchor {
				t.Fatalf("active segment %d is below the restored anchor %d", seq, tc.restart.anchor)
			}
		})
	}
}
