package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecordDecode throws random bytes and mutated valid frames at the
// record decoder: it must never panic, never report a frame larger than
// its input (over-read), and every accepted frame must re-encode to the
// exact bytes it was decoded from.
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(appendRecord(nil, []byte("hello wal")))
	f.Add(appendRecord(appendRecord(nil, []byte("a")), []byte("bb")))
	// A frame whose length field claims far more than the buffer holds.
	huge := make([]byte, recordHeaderSize)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	f.Add(huge)
	// A valid frame with a flipped payload byte (checksum must catch it).
	mut := appendRecord(nil, []byte("mutate me"))
	mut[len(mut)-1] ^= 0x01
	f.Add(mut)

	f.Fuzz(func(t *testing.T, b []byte) {
		payload, n, err := decodeRecord(b)
		if err != nil {
			if err != ErrTornRecord {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n < recordHeaderSize || n > len(b) {
			t.Fatalf("decoded frame size %d out of bounds (input %d)", n, len(b))
		}
		if len(payload) != n-recordHeaderSize {
			t.Fatalf("payload length %d inconsistent with frame size %d", len(payload), n)
		}
		if re := appendRecord(nil, payload); !bytes.Equal(re, b[:n]) {
			t.Fatal("accepted frame does not re-encode to its input bytes")
		}
	})
}

// FuzzRecoverStream feeds the one recovery loop arbitrary segment and
// snapshot bytes — the crash debris a restart reads and the files a
// standby receives. Layout: segments 1 and 2, a fuzzed snapshot anchored
// at 2 and a sound older one at 1 to fall back on. It must never panic,
// and every payload it hands out must sit, length and CRC32C intact, at
// the next frame boundary of the file it came from (checked by hand, not
// through decodeRecord): segments replay contiguously from their first
// byte, and only a fully consumed segment is followed by the next.
func FuzzRecoverStream(f *testing.F) {
	// Seeds: the byte-offset crash matrix of wal_test.go — a segment cut
	// at every offset inside its final record, and bit flips there.
	var whole []byte
	for _, p := range payloads(4) {
		whole = appendRecord(whole, p)
	}
	lastStart := len(whole) - (recordHeaderSize + len(payloads(4)[3]))
	snap := appendRecord(nil, []byte("state"))
	for cut := lastStart; cut <= len(whole); cut++ {
		f.Add(whole, whole[:cut], snap, true)
		f.Add(whole[:cut], whole, snap[:cut%(len(snap)+1)], false)
	}
	for off := lastStart; off < len(whole); off += 5 {
		mut := append([]byte(nil), whole...)
		mut[off] ^= 0x40
		f.Add(whole, mut, snap, true)
	}
	f.Add([]byte{}, []byte{}, []byte{}, false)

	// One directory per fuzz process, its four files overwritten on every
	// execution: a fresh t.TempDir each time is slower and noisy enough in
	// coverage to send the minimizer chasing nothing.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, seg1, seg2, snap []byte, tornTailOK bool) {
		older := appendRecord(nil, []byte("older state"))
		files := map[string][]byte{
			segmentName(defaultSegmentPrefix, 1):   seg1,
			segmentName(defaultSegmentPrefix, 2):   seg2,
			snapshotName(defaultSnapshotPrefix, 1): older,
			snapshotName(defaultSnapshotPrefix, 2): snap,
		}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var restored []byte
		var recs [][]byte
		st, err := recoverStream(dir, defaultSegmentPrefix, defaultSnapshotPrefix, tornTailOK,
			func(b []byte) error { restored = append([]byte(nil), b...); return nil },
			func(b []byte) error { recs = append(recs, append([]byte(nil), b...)); return nil })

		// intact reports whether p is framed, checksum and all, at b[off:].
		intact := func(b []byte, off int, p []byte) bool {
			if len(b)-off < recordHeaderSize+len(p) {
				return false
			}
			return binary.LittleEndian.Uint32(b[off:]) == uint32(len(p)) &&
				binary.LittleEndian.Uint32(b[off+4:]) == crc32.Checksum(p, castagnoli) &&
				bytes.Equal(b[off+recordHeaderSize:off+recordHeaderSize+len(p)], p)
		}
		switch st.SnapshotSeq {
		case 1:
			if !bytes.Equal(restored, []byte("older state")) {
				t.Fatalf("fallback snapshot restored as %q", restored)
			}
		case 2:
			if !intact(snap, 0, restored) || len(snap) != recordHeaderSize+len(restored) {
				t.Fatalf("restored a snapshot payload %q that is not the file's whole, checksummed frame", restored)
			}
		default:
			t.Fatalf("no snapshot restored (anchor %d) although the older one is sound", st.SnapshotSeq)
		}
		segs := [][]byte{seg1, seg2}[st.SnapshotSeq-1:]
		off := 0
		for _, p := range recs {
			if len(segs) > 1 && off == len(segs[0]) {
				segs, off = segs[1:], 0
			}
			if !intact(segs[0], off, p) {
				t.Fatalf("replay was handed %q, which is not an intact frame at the scan position", p)
			}
			off += recordHeaderSize + len(p)
		}
		for len(segs) > 1 && off == len(segs[0]) {
			segs, off = segs[1:], 0
		}
		if err != nil {
			return
		}
		// Accepted: every segment before the last was consumed whole, and
		// unread bytes at the tail are exactly what TornTail reports — which
		// a shipped directory never may.
		if len(segs) > 1 {
			t.Fatalf("accepted with %d unscanned bytes in an earlier segment", len(segs[0])-off)
		}
		if tail := off != len(segs[0]); tail != st.TornTail || tail && !tornTailOK {
			t.Fatalf("unscanned tail = %v, TornTail = %v, tornTailOK = %v", tail, st.TornTail, tornTailOK)
		}
	})
}

// FuzzLoadManifest: a WAL directory's layout manifest is read on every
// restore and mirrored from a primary by every standby, so its bytes are
// untrusted. LoadManifest must never panic, must accept exactly the
// files whose JSON decodes to a version this binary understands and at
// least one shard, and an accepted manifest must round-trip through
// SaveManifest. The seeds are files SaveManifest wrote.
func FuzzLoadManifest(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, ManifestName)
	for _, m := range []Manifest{
		{Version: ManifestVersion, Shards: 4},
		{Version: ManifestVersion, Shards: 2, Remap: true},
		{Version: 1, Shards: 1},
	} {
		if err := SaveManifest(dir, m); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok, err := LoadManifest(dir)
		var want Manifest
		accept := json.Unmarshal(b, &want) == nil && want.Version <= ManifestVersion && want.Shards >= 1
		if ok != accept || (err == nil) != accept {
			t.Fatalf("LoadManifest(%q) = ok %v, err %v; want accept %v", b, ok, err, accept)
		}
		if !accept {
			return
		}
		if m != want {
			t.Fatalf("LoadManifest(%q) = %+v, want %+v", b, m, want)
		}
		if err := SaveManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if again, ok, err := LoadManifest(dir); !ok || err != nil || again != m {
			t.Fatalf("saved %+v loads back as %+v (ok %v, err %v)", m, again, ok, err)
		}
	})
}
