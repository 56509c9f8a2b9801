package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Replication export surface. A warm standby replicates a WAL directory
// by copying files, and the only file a writer ever mutates in place is
// the highest-sequence segment of each stream — the active segment.
// Every other stream file (sealed segments, committed snapshots) is
// immutable by name: once a name exists its bytes never change, so a
// follower can fetch it once and trust it forever; only the layout
// manifest and the remap staging file are replaced whole. The helpers
// here give a shipper the ship-sealed-only listing and give a follower
// read-only verification and replay, without ever opening a mutating
// Log (Open truncates torn tails; a follower must not rewrite the
// primary's files). Model checkpoints live in their own directory and
// are not part of this listing (see Checkpoints, IsCheckpointName).

// StreamFile describes one replicable file within a WAL directory.
type StreamFile struct {
	// Name is the file's base name within the directory.
	Name string `json:"name"`
	Size int64  `json:"size"`
	// Mutable marks names whose bytes may change in place
	// (MANIFEST.json, the remap staging file): a follower re-fetches
	// these every round instead of trusting a cached copy.
	Mutable bool `json:"mutable,omitempty"`
}

// splitStreamName splits <prefix><seq><ext> into its stream prefix and
// sequence number, for ext ".log" or ".snap". Names without a trailing
// digit run (e.g. the remap staging file "remap.snap") do not match.
func splitStreamName(name, ext string) (prefix string, seq uint64, ok bool) {
	if !strings.HasSuffix(name, ext) {
		return "", 0, false
	}
	base := name[:len(name)-len(ext)]
	i := len(base)
	for i > 0 && base[i-1] >= '0' && base[i-1] <= '9' {
		i--
	}
	if i == len(base) {
		return "", 0, false
	}
	n, err := strconv.ParseUint(base[i:], 10, 64)
	if err != nil || n == 0 {
		return "", 0, false
	}
	return base[:i], n, true
}

// SplitSegmentName splits a segment file name <prefix><seq>.log,
// reporting ok=false for non-segment names.
func SplitSegmentName(name string) (prefix string, seq uint64, ok bool) {
	return splitStreamName(name, ".log")
}

// SplitSnapshotName splits a snapshot file name <prefix><seq>.snap,
// reporting ok=false for non-snapshot names (including RemapFile).
func SplitSnapshotName(name string) (prefix string, seq uint64, ok bool) {
	return splitStreamName(name, ".snap")
}

// SegmentFileName returns the file name of stream prefix's segment seq.
func SegmentFileName(prefix string, seq uint64) string { return segmentName(prefix, seq) }

// SnapshotFileName returns the file name of stream prefix's snapshot
// seq.
func SnapshotFileName(prefix string, seq uint64) string { return snapshotName(prefix, seq) }

// ListSegmentSeqs returns the stream's segment sequence numbers in
// ascending order.
func ListSegmentSeqs(dir, prefix string) ([]uint64, error) { return listSegments(dir, prefix) }

// ListSnapshotSeqs returns the stream's snapshot sequence numbers in
// ascending order.
func ListSnapshotSeqs(dir, prefix string) ([]uint64, error) { return listSeqs(dir, prefix, ".snap") }

// SealedStreamFiles lists the replicable files of a WAL directory: every
// snapshot, the layout manifest and remap staging file when present,
// and every sealed segment — each stream's highest-sequence segment is
// the active one the writer is still appending to, and is excluded
// (ship-sealed-only: the standby's tail beyond the newest shipped
// segment is recovered by feeder redelivery through dedupe, exactly as
// a restart recovers it from the unreplicated active segment).
// Anything else — WriteAtomic's .<name>.tmp-* staging files included —
// is not a stream file and is skipped. The listing is sorted by name.
func SealedStreamFiles(dir string) ([]StreamFile, error) { return sealedStreamFiles(dir, true) }

// SealedStreamNames is SealedStreamFiles without the stat per file that
// reads each Size (left 0), for a caller asking only which names ship.
func SealedStreamNames(dir string) ([]StreamFile, error) { return sealedStreamFiles(dir, false) }

func sealedStreamFiles(dir string, sized bool) ([]StreamFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	active := make(map[string]uint64) // segment prefix -> highest seq
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if prefix, seq, ok := SplitSegmentName(e.Name()); ok && seq > active[prefix] {
			active[prefix] = seq
		}
	}
	var out []StreamFile
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var mutable bool
		switch {
		case name == ManifestName || name == RemapFile:
			mutable = true
		default:
			if prefix, seq, ok := SplitSegmentName(name); ok {
				if seq == active[prefix] {
					continue // the active segment never ships
				}
			} else if _, _, ok := SplitSnapshotName(name); !ok {
				continue // not a stream file
			}
		}
		f := StreamFile{Name: name, Mutable: mutable}
		if sized {
			fi, err := e.Info()
			if os.IsNotExist(err) {
				continue // pruned between ReadDir and stat
			} else if err != nil {
				return nil, err
			}
			f.Size = fi.Size()
		}
		out = append(out, f) // os.ReadDir sorts by name
	}
	return out, nil
}

// VerifySegmentFile validates a sealed segment: every byte must belong
// to a whole, checksum-valid record. Unlike recovery of the active
// segment, a torn tail here is an error — sealed segments were closed
// on a record boundary, so any tear means a corrupt or truncated ship.
func VerifySegmentFile(path string) error {
	_, err := ReplaySegmentFile(path, func([]byte) error { return nil })
	return err
}

// VerifySnapshotFile validates a snapshot (or remap staging) file: one
// whole checksum-valid record spanning the entire file.
func VerifySnapshotFile(path string) error {
	if _, err := ReadStateFile(path); err != nil {
		return fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
	}
	return nil
}

// VerifyStreamFile checks the file at path against the framing rules of
// the stream-file name it has or (a fetched temp file) is about to
// assume: segments get the full record-chain scan, snapshot-framed files
// the single-record check. Names with no framed format (MANIFEST.json)
// verify trivially.
func VerifyStreamFile(name, path string) error {
	if _, _, ok := SplitSegmentName(name); ok {
		return VerifySegmentFile(path)
	}
	if _, _, ok := SplitSnapshotName(name); ok || name == RemapFile {
		return VerifySnapshotFile(path)
	}
	return nil
}

// ReplaySegmentFile streams a sealed segment's records through fn in
// append order, read-only. A torn record is an error; fn's payload is
// only valid during the call.
func ReplaySegmentFile(path string, fn func(payload []byte) error) (int, error) {
	n, torn, err := replaySegment(path, fn)
	if err != nil {
		return n, err
	}
	if torn {
		return n, fmt.Errorf("wal: %s: torn record in sealed segment", filepath.Base(path))
	}
	return n, nil
}

// RestoreStream rebuilds one stream's state from a shipped directory
// through recoverStream — the loop Store.Recover runs on a restart —
// without ever mutating it (no torn-tail truncation, no pruning), and
// with every tear an error: a replicated directory holds only sealed,
// complete files. A standby uses this to rebuild after a replication
// gap, converging on the same state a primary restart would.
func RestoreStream(dir, segPrefix, snapPrefix string, restore func(snapshot []byte) error, replay func(record []byte) error) (RecoverStats, error) {
	return recoverStream(dir, segPrefix, snapPrefix, false, restore, replay)
}
