// Package wal is the serving layer's durability subsystem: an
// append-only write-ahead log with CRC-framed records and segment
// rotation (Log), a snapshot/compaction layer on top of it (Store),
// atomic file replacement (WriteAtomic) and versioned model-checkpoint
// management (Checkpoints).
//
// The contract mirrors classic database recovery: every state change is
// appended (and, under SyncAlways, committed by an fsync) to the log
// before it is acknowledged, a snapshot periodically captures the full
// state at a segment boundary, and recovery is "load the newest valid
// snapshot, then replay the WAL suffix". A crash mid-append leaves a
// torn tail that recovery truncates instead of failing — the log never
// loses an acknowledged record to repair an unacknowledged one.
//
// The package is dependency-free (standard library only) and knows
// nothing about sessions or models; payloads are opaque bytes.
package wal

import (
	"errors"
	"time"
)

// SyncPolicy selects when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs at every Commit that has something to flush —
	// after every record for Log.Append, once per group for a caller
	// that writes with AppendDeferred and commits before it
	// acknowledges: an acknowledged record survives kill -9 and power
	// loss. Commits on one log serialize on the fsync.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (every 100ms): a
	// crash loses at most one interval of acknowledged records.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache: fastest, survives
	// process crashes (the data reached the kernel) but not power loss.
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always", "interval" and
// "never" to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, errors.New("wal: unknown fsync policy " + s + " (use always, interval or never)")
}

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return "unknown"
}

// Options tunes a Log (and the Store wrapping it). The zero value is
// usable: SyncAlways, 64 MiB segments.
type Options struct {
	// SegmentBytes caps a segment; an append that crosses the cap seals
	// the segment and rotates to a fresh one (0 means 64 MiB).
	SegmentBytes int64
	// Sync selects the fsync policy.
	Sync SyncPolicy

	// OnAppend, if non-nil, observes every appended record's framed size
	// in bytes (instrumentation hook; called under the log mutex — keep
	// it cheap, e.g. a counter increment).
	OnAppend func(bytes int)
	// OnSync, if non-nil, observes every fsync's duration.
	OnSync func(took time.Duration)

	// SegmentPrefix names segment files <prefix><seq>.log (empty means
	// "wal-"). Streams with different prefixes coexist in one directory
	// without seeing each other's files — the sharded layout puts every
	// shard's stream in the same per-tenant dir under its own prefix.
	SegmentPrefix string
	// SnapshotPrefix names snapshot files <prefix><seq>.snap (empty
	// means "snap-").
	SnapshotPrefix string
}

// DefaultSegmentBytes is the segment rotation cap when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

const (
	defaultSegmentPrefix  = "wal-"
	defaultSnapshotPrefix = "snap-"
)

// syncInterval is the background fsync period under SyncInterval (a
// variable so tests can stretch or shrink it before Open).
var syncInterval = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SegmentPrefix == "" {
		o.SegmentPrefix = defaultSegmentPrefix
	}
	if o.SnapshotPrefix == "" {
		o.SnapshotPrefix = defaultSnapshotPrefix
	}
	return o
}
