package replica

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/wal"
)

// Target is one tenant's warm standby: the surface the replayer drives.
// The method set is *serve.Service's own (a durable service that has
// not gone live), so the follower hands the replayer the service
// itself; tests substitute recorders.
type Target interface {
	// ReplicaReset drops all session state ahead of a full rebuild (id
	// counters survive so promoted ids never move backwards).
	ReplicaReset() error
	// ReplicaRestoreSnapshot applies one shipped snapshot payload.
	ReplicaRestoreSnapshot(payload []byte) error
	// ReplicaApplyRecord replays one shipped WAL record.
	ReplicaApplyRecord(payload []byte) error
	// SwapModel hot-replaces the scoring model (a newer shipped
	// checkpoint became current).
	SwapModel(u *core.UCAD) error
	// WarmScoreCache pre-computes similarity rows for the open
	// sessions' scoring windows; returns rows actually computed.
	WarmScoreCache(limit int) int
}

// Replayer incrementally folds one tenant's synced directory into its
// Target. Each Apply round replays exactly the sealed segments that
// arrived since the last round, in per-stream seq order; because every
// client's records live in a single stream and application is
// idempotent, per-client order — the only order session assembly
// depends on — is preserved even though streams replay independently.
//
// Two conditions force a full rebuild (ReplicaReset, then
// wal.RestoreStream — the recovery loop a restart runs, pointed at the
// shipped files): a seq gap
// in a stream (the primary pruned a segment before we fetched it — we
// fell behind by more than the primary's retention), and a shard-layout
// change in the manifest.
type Replayer struct {
	dir    string // tenant directory (holds wal/, checkpoints/)
	target Target

	booted bool
	shards int
	next   []uint64 // per-stream next segment seq to replay
	ckpt   string   // checkpoint file name last swapped in
	// applied is read by Follower.Status while a round replays.
	applied atomic.Int64
}

// Applied summarizes one Apply round.
type Applied struct {
	Records int
	Rebuilt bool
	Swapped bool // a newer model checkpoint was installed
	Warmed  int
}

// NewReplayer returns a replayer over a synced tenant directory.
func NewReplayer(dir string, target Target) *Replayer {
	return &Replayer{dir: dir, target: target}
}

// AppliedRecords reports the lifetime count of replayed WAL records.
func (rp *Replayer) AppliedRecords() int64 { return rp.applied.Load() }

// Apply folds everything new in the synced directory into the target.
// Safe to call repeatedly; an error leaves the replayer consistent
// (replay is idempotent) and the next round retries.
func (rp *Replayer) Apply() (Applied, error) {
	var out Applied
	walDir := filepath.Join(rp.dir, walSubdir)
	man, ok, err := wal.LoadManifest(walDir)
	if err != nil {
		return out, err
	}
	if !ok {
		// Nothing shipped yet.
		return out, nil
	}
	if man.Remap {
		// The primary is mid shard-migration; its stream set is being
		// rewritten underneath the listing. Skip this round — the next
		// manifest flip lands a stable layout and triggers a rebuild.
		return out, nil
	}
	if err := rp.swapCheckpoint(&out); err != nil {
		return out, err
	}
	if !rp.booted || man.Shards != rp.shards {
		if err := rp.rebuild(man.Shards, &out); err != nil {
			return out, err
		}
	} else if err := rp.catchUp(&out); err != nil {
		return out, err
	}
	// Keep the standby's score cache hot: the first scoring passes after
	// promotion hit instead of recomputing.
	if out.Records > 0 || out.Rebuilt || out.Swapped {
		out.Warmed = rp.target.WarmScoreCache(0)
	}
	return out, nil
}

// swapCheckpoint installs the newest shipped model checkpoint when it
// differs from the one the target is scoring with.
func (rp *Replayer) swapCheckpoint(out *Applied) error {
	ck, err := wal.OpenCheckpoints(filepath.Join(rp.dir, ckptSubdir), 0)
	if err != nil {
		return err
	}
	cur := ck.Current()
	if cur == "" || filepath.Base(cur) == rp.ckpt {
		return nil
	}
	f, err := os.Open(cur)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Manifest ahead of the payload fetch; next round.
			return nil
		}
		return err
	}
	u, err := core.Load(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("replica: shipped checkpoint %s: %w", filepath.Base(cur), err)
	}
	if err := rp.target.SwapModel(u); err != nil {
		return err
	}
	rp.ckpt = filepath.Base(cur)
	out.Swapped = true
	return nil
}

// rebuild drops the target and re-restores from the shipped files.
func (rp *Replayer) rebuild(shards int, out *Applied) error {
	if rp.booted {
		if err := rp.target.ReplicaReset(); err != nil {
			return err
		}
	}
	walDir := filepath.Join(rp.dir, walSubdir)
	next := make([]uint64, shards)
	for i := 0; i < shards; i++ {
		// List before restoring: a segment shipping in between is then
		// merely re-replayed next round (idempotent), never skipped.
		seqs, err := wal.ListSegmentSeqs(walDir, wal.ShardSegmentPrefix(i))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		st, err := wal.RestoreStream(walDir, wal.ShardSegmentPrefix(i), wal.ShardSnapshotPrefix(i),
			rp.target.ReplicaRestoreSnapshot, rp.target.ReplicaApplyRecord)
		out.Records += st.Records
		rp.applied.Add(int64(st.Records))
		if err != nil {
			return err
		}
		// Resume after the highest sealed segment shipped; when only a
		// snapshot shipped so far, the segments >= its anchor are still
		// active upstream and replay once they seal and arrive.
		switch {
		case len(seqs) > 0:
			next[i] = seqs[len(seqs)-1] + 1
		case st.SnapshotSeq > 0:
			next[i] = st.SnapshotSeq
		default:
			next[i] = 1
		}
	}
	rp.booted, rp.shards, rp.next = true, shards, next
	out.Rebuilt = true
	return nil
}

// catchUp replays segments that sealed (and shipped) since last round.
func (rp *Replayer) catchUp(out *Applied) error {
	walDir := filepath.Join(rp.dir, walSubdir)
	for i := 0; i < rp.shards; i++ {
		prefix := wal.ShardSegmentPrefix(i)
		seqs, err := wal.ListSegmentSeqs(walDir, prefix)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		for _, seq := range seqs {
			if seq < rp.next[i] {
				continue
			}
			if seq > rp.next[i] {
				// The segment we need next is gone: the primary pruned
				// past our position. Start over from the newest
				// snapshot.
				return rp.rebuild(rp.shards, out)
			}
			path := filepath.Join(walDir, wal.SegmentFileName(prefix, seq))
			n, err := wal.ReplaySegmentFile(path, rp.target.ReplicaApplyRecord)
			if err != nil {
				return err
			}
			out.Records += n
			rp.applied.Add(int64(n))
			rp.next[i] = seq + 1
		}
	}
	return nil
}
