package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store layers snapshot/compaction on a Log. A snapshot captures the
// caller's full state at a segment boundary: BeginSnapshot seals the
// active segment (records appended afterwards are the snapshot's replay
// suffix), CommitSnapshot durably writes the state as snap-<seq>.snap
// and only then prunes the WAL segments and snapshots it supersedes —
// the snapshot-then-truncate invariant: bytes leave the log only after
// the state they rebuilt is safely on disk.
//
// Recovery (Recover) is the inverse; see recoverStream.
type Store struct {
	dir string
	log *Log
}

// RecoverStats summarizes one recovery pass.
type RecoverStats struct {
	// SnapshotSeq is the segment sequence the restored snapshot anchors
	// to (0 when recovery started from empty state).
	SnapshotSeq uint64
	// Segments is the number of WAL segments replayed.
	Segments int
	// Records is the number of WAL records replayed.
	Records int
	// TornTail reports whether the last segment ended in a torn record
	// (evidence of a crash mid-append; the tail was dropped).
	TornTail bool
}

// OpenStore opens (creating if needed) a Store in dir. The underlying
// log has any torn tail truncated; call Recover before the first
// Append to rebuild state from the snapshot + WAL suffix.
func OpenStore(dir string, opt Options) (*Store, error) {
	l, err := Open(dir, opt)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, log: l}
	// Never append below the newest snapshot's anchor: a replicated
	// directory can carry a shipped snapshot ahead of every local
	// segment, and records written under it would be invisible to
	// Recover (and pruned with the history the snapshot replaced).
	snaps, err := ListSnapshotSeqs(dir, l.opt.SnapshotPrefix)
	if err != nil {
		l.Close()
		return nil, err
	}
	if n := len(snaps); n > 0 && snaps[n-1] > l.Seq() {
		if err := l.SkipTo(snaps[n-1]); err != nil {
			l.Close()
			return nil, err
		}
	}
	return s, nil
}

func snapshotName(prefix string, seq uint64) string { return fmt.Sprintf("%s%016d.snap", prefix, seq) }

// recoverStream is the one recovery loop: restore is called at most
// once with the newest snapshot that passes its checksum (a corrupt one
// falls back to the next older, replaying a longer suffix), then replay
// is called for every record of each segment at or after that
// snapshot's anchor, in append order — from the oldest segment and
// empty state when no snapshot is valid. It reads only. tornTailOK is the
// single difference between its two callers: a restart tolerates a torn
// record at the very end of the last segment (the crash tail, never
// acknowledged under SyncAlways) and reports it as TornTail; a shipped
// directory holds sealed files only, so there any tear is an error. A
// tear anywhere earlier is corruption for both.
func recoverStream(dir, segPrefix, snapPrefix string, tornTailOK bool, restore func(snapshot []byte) error, replay func(record []byte) error) (RecoverStats, error) {
	var st RecoverStats
	snaps, err := ListSnapshotSeqs(dir, snapPrefix)
	if err != nil {
		return st, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, err := ReadStateFile(filepath.Join(dir, snapshotName(snapPrefix, snaps[i])))
		if err != nil {
			continue // corrupt or unreadable: fall back to an older one
		}
		if err := restore(payload); err != nil {
			return st, err
		}
		st.SnapshotSeq = snaps[i]
		break
	}
	seqs, err := listSegments(dir, segPrefix)
	if err != nil {
		return st, err
	}
	for i, seq := range seqs {
		if seq < st.SnapshotSeq {
			continue
		}
		name := segmentName(segPrefix, seq)
		n, torn, err := replaySegment(filepath.Join(dir, name), replay)
		st.Records += n
		st.Segments++
		if err != nil {
			return st, err
		}
		if torn {
			if !tornTailOK || i != len(seqs)-1 {
				return st, fmt.Errorf("wal: %s: torn record in sealed segment", name)
			}
			st.TornTail = true
		}
	}
	return st, nil
}

// Recover rebuilds state after a restart through recoverStream,
// tolerating the crash tail, then prunes what the restored snapshot
// superseded.
func (s *Store) Recover(restore func(snapshot []byte) error, replay func(record []byte) error) (RecoverStats, error) {
	st, err := recoverStream(s.dir, s.log.opt.SegmentPrefix, s.log.opt.SnapshotPrefix, true, restore, replay)
	if err != nil {
		return st, err
	}
	// Open already truncated the crash tail before this replay ran;
	// surface it as the torn-tail signal.
	st.TornTail = st.TornTail || s.log.tornAtOpen
	// Crash leftovers: segments and snapshots whose pruning did not
	// complete.
	s.prune()
	return st, nil
}

// ReadStore is Recover for a reader that does not own the store in dir
// (default segment and snapshot prefixes): the same recoverStream pass,
// tolerating the crash tail the same way, but it truncates, prunes and
// creates nothing, so it may run beside a live writer or on a copy.
func ReadStore(dir string, restore func(snapshot []byte) error, replay func(record []byte) error) (RecoverStats, error) {
	return recoverStream(dir, defaultSegmentPrefix, defaultSnapshotPrefix, true, restore, replay)
}

// Append appends one record to the log (see Log.Append).
func (s *Store) Append(payload []byte) error { return s.log.Append(payload) }

// AppendDeferred writes one record without making it durable yet (see
// Log.AppendDeferred); Commit is its durability point (see Log.Commit).
func (s *Store) AppendDeferred(payload []byte) error { return s.log.AppendDeferred(payload) }

// Commit makes every record written so far durable per the sync policy.
func (s *Store) Commit() error { return s.log.Commit() }

// SegmentBytes reports the active segment's size.
func (s *Store) SegmentBytes() int64 { return s.log.SegmentBytes() }

// BeginSnapshot seals the active segment and returns the snapshot
// anchor sequence. The caller must capture the state it will commit
// BEFORE any append that follows the rotation — in practice: hold the
// lock that serializes appends, capture state, call BeginSnapshot,
// release, then CommitSnapshot off the hot path.
func (s *Store) BeginSnapshot() (uint64, error) { return s.log.Rotate() }

// CommitSnapshot durably writes the state captured at anchor seq, then
// prunes the segments and snapshots it supersedes. A crash before the
// atomic rename leaves the previous snapshot and the full WAL intact.
func (s *Store) CommitSnapshot(seq uint64, state []byte) error {
	if err := WriteStateFile(filepath.Join(s.dir, snapshotName(s.log.opt.SnapshotPrefix, seq)), state); err != nil {
		return err
	}
	s.prune()
	return nil
}

// Snapshot is BeginSnapshot+CommitSnapshot for callers whose state
// capture needs no external serialization against appends.
func (s *Store) Snapshot(state []byte) error {
	seq, err := s.BeginSnapshot()
	if err != nil {
		return err
	}
	return s.CommitSnapshot(seq, state)
}

// prune removes WAL segments and snapshots no longer needed for
// recovery. The two newest snapshots are retained along with every
// segment at or after the OLDER one: if the newest snapshot's bytes
// ever rot, recovery falls back to the previous snapshot and replays
// the full suffix since it — landing on the same current state, not an
// older one. Best-effort: a failed remove is retried by the next
// snapshot or recovery.
func (s *Store) prune() {
	snaps, err := ListSnapshotSeqs(s.dir, s.log.opt.SnapshotPrefix)
	if err != nil || len(snaps) == 0 {
		return
	}
	cutoff := snaps[len(snaps)-1]
	if len(snaps) >= 2 {
		cutoff = snaps[len(snaps)-2]
	}
	segs, err := listSegments(s.dir, s.log.opt.SegmentPrefix)
	if err != nil {
		return
	}
	for _, old := range segs {
		if old < cutoff {
			os.Remove(filepath.Join(s.dir, segmentName(s.log.opt.SegmentPrefix, old)))
		}
	}
	for _, old := range snaps {
		if old < cutoff {
			os.Remove(filepath.Join(s.dir, snapshotName(s.log.opt.SnapshotPrefix, old)))
		}
	}
}

// Close seals the log.
func (s *Store) Close() error { return s.log.Close() }
