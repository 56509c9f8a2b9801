package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Layout manifest (schema v2). A WAL directory holding sharded streams
// carries a MANIFEST.json naming the layout so recovery opens exactly
// the streams the writer used:
//
//	{"version":2,"shards":4}            — steady state, 4 streams
//	{"version":2,"shards":8,"remap":true}
//	                                    — a resize to 8 is in flight
//
// A directory with no manifest must be empty (fresh: the opener writes
// a manifest for its configured shard count). One that holds stream
// files anyway (HasStreamFiles) has an unknown layout and is refused by
// the opener.
//
// The remap protocol is crash-safe by staging, not by in-place
// rewrite: the merged state of the old layout is first written to
// RemapFile (CRC-framed, fsynced), then the manifest flips to
// remap:true — the commit point — then every old stream file is
// deleted and the new streams are seeded. A crash before the flip
// recovers the old layout untouched; a crash after it resumes from the
// staging file, whose bytes no further step mutates.

// ManifestName is the layout manifest's filename within a WAL dir.
const ManifestName = "MANIFEST.json"

// RemapFile is the staged merged-state file of an in-flight shard
// remap (see the protocol above). CRC-framed via WriteStateFile.
const RemapFile = "remap.snap"

// ManifestVersion is the current layout schema version.
const ManifestVersion = 2

// Manifest names a WAL directory's stream layout.
type Manifest struct {
	Version int `json:"version"`
	// Shards is the number of streams (and, under remap, the migration
	// target).
	Shards int `json:"shards"`
	// Remap marks an in-flight shard-count migration: the old layout's
	// merged state is durably staged in RemapFile and the stream files
	// are being replaced. Recovery resumes from the staging file.
	Remap bool `json:"remap,omitempty"`
}

// ShardSegmentPrefix names shard i's segment files
// wal-shard-<i>-<seq>.log.
func ShardSegmentPrefix(shard int) string { return fmt.Sprintf("wal-shard-%02d-", shard) }

// ShardSnapshotPrefix names shard i's snapshot files
// snap-shard-<i>-<seq>.snap.
func ShardSnapshotPrefix(shard int) string { return fmt.Sprintf("snap-shard-%02d-", shard) }

// LoadManifest reads dir's layout manifest; ok=false means none exists.
func LoadManifest(dir string) (Manifest, bool, error) {
	var m Manifest
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return m, false, nil
	}
	if err != nil {
		return m, false, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, false, fmt.Errorf("wal: corrupt %s: %w", ManifestName, err)
	}
	if m.Version > ManifestVersion {
		return m, false, fmt.Errorf("wal: %s version %d is newer than this binary understands (%d)",
			ManifestName, m.Version, ManifestVersion)
	}
	if m.Shards < 1 {
		return m, false, fmt.Errorf("wal: %s names %d shards", ManifestName, m.Shards)
	}
	return m, true, nil
}

// SaveManifest atomically replaces dir's layout manifest (durable once
// it returns — WriteAtomic fsyncs the file and the directory).
func SaveManifest(dir string, m Manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return WriteAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, werr := w.Write(append(b, '\n'))
		return werr
	})
}

// isStreamFile matches any stream's files by name: wal-*.log segments
// and snap-*.snap snapshots regardless of shard prefix.
func isStreamFile(name string) bool {
	return strings.HasPrefix(name, defaultSegmentPrefix) && strings.HasSuffix(name, ".log") ||
		strings.HasPrefix(name, defaultSnapshotPrefix) && strings.HasSuffix(name, ".snap")
}

// HasStreamFiles reports whether dir holds any stream file. Together
// with a missing manifest it marks a directory whose layout is unknown.
func HasStreamFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	for _, e := range ents {
		if !e.IsDir() && isStreamFile(e.Name()) {
			return true, nil
		}
	}
	return false, err
}

// RemoveAllStreams deletes every stream file in dir, leaving the
// manifest and the remap staging file alone. The destructive step of
// the remap protocol, run only after the staged state is durable and
// the manifest has flipped.
func RemoveAllStreams(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() || !isStreamFile(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// WriteStateFile atomically writes one CRC-framed state payload (the
// remap staging format; same framing as a snapshot file).
func WriteStateFile(path string, payload []byte) error {
	framed := appendRecord(make([]byte, 0, recordHeaderSize+len(payload)), payload)
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(framed)
		return err
	})
}

// ReadStateFile loads and checksum-validates a WriteStateFile payload.
func ReadStateFile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, n, err := decodeRecord(b)
	if err != nil || n != len(b) {
		return nil, ErrTornRecord
	}
	return payload, nil
}
