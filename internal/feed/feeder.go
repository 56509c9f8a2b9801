package feed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/wal"
)

// Checkpoint is the feeder's durable resume state: the source position
// of the last acknowledged batch plus the sessionizer's sequence
// counters at that point. Both halves commit in one fsynced record, so
// a restart replays the uncommitted suffix with the same sequence
// numbers it carried before the crash and the serving layer's dedupe
// absorbs the overlap — exactly-once sessions on top of at-least-once
// delivery.
//
// On disk the state is a wal.Store stream in the CheckpointPath
// directory, and this one type is both of its payloads. A snapshot
// holds the full state. A delta record, one per acknowledged batch,
// holds the position and epoch with only the sessions the batch
// stamped, and Failover only when the retained points rotated;
// LoadCheckpoint folds the deltas over the snapshot in commit order.
type Checkpoint struct {
	Pos      Position              `json:"pos"`
	Sessions map[string]SessionSeq `json:"sessions,omitempty"`
	// Epoch is the sessionizer's last issued session epoch. It is
	// persisted separately from Sessions because the highest-epoch
	// session may already have been swept from the counters, and a
	// restart must never reissue an epoch the serving layer could still
	// hold open.
	Epoch int64 `json:"epoch,omitempty"`
	// Failover retains the older resume states the failover rewind
	// falls back to (present only when FeederConfig.FailoverRewind is
	// enabled), so a crash between a failover and the next commit still
	// resumes behind the replication lag window.
	Failover *FailoverState `json:"failover,omitempty"`
}

// FailoverPoint is one retained resume state: a past (position,
// sessionizer counters) pair the feeder can rewind to. Replaying the
// stream from a point reproduces the exact (epoch, seq) labels the
// first pass issued — sessionization is deterministic given the
// counters — so redelivery dedupes at the server instead of forking
// sessions.
type FailoverPoint struct {
	Pos      Position              `json:"pos"`
	Sessions map[string]SessionSeq `json:"sessions,omitempty"`
	Epoch    int64                 `json:"epoch,omitempty"`
	// At is the wall-clock capture time; a point older than the
	// FailoverRewind window is one whose delivered prefix has had time
	// to replicate to any standby.
	At time.Time `json:"at"`
}

// FailoverState is the two-bucket retention of failover points: Active
// is the rewind target (at least one rewind window old, once the feeder
// has run that long), Pending is the candidate that replaces it when it
// ages past the window. Active's age is thus bounded to roughly
// [window, 2×window] — old enough that its prefix replicated, young
// enough that a rewind stays inside the server's session idle timeout.
type FailoverState struct {
	Active  *FailoverPoint `json:"active,omitempty"`
	Pending *FailoverPoint `json:"pending,omitempty"`
}

// Position names the committed offset of a file-backed source. Kind
// guards against pointing an old checkpoint at a different source type.
type Position struct {
	Kind string  `json:"kind"` // "file" for tailer sources, "none" otherwise
	File FilePos `json:"file,omitempty"`
}

// LoadCheckpoint reads the resume state committed in the checkpoint
// store at dir: the newest valid snapshot with every later delta folded
// in. It is read-only — a torn record at the end of the log (a crash
// mid-commit, never counted as committed) ends the replay as it does
// for wal.Store.Recover — and a missing store returns the zero
// checkpoint (fresh start) with ok=false.
func LoadCheckpoint(dir string) (Checkpoint, bool, error) {
	var cp Checkpoint
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return cp, false, nil
	}
	st, err := wal.ReadStore(dir, func(snap []byte) error {
		return json.Unmarshal(snap, &cp)
	}, func(rec []byte) error {
		var d Checkpoint
		if err := json.Unmarshal(rec, &d); err != nil {
			return err
		}
		cp.apply(d)
		return nil
	})
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("feed: load checkpoint %s: %w", dir, err)
	}
	return cp, st.SnapshotSeq != 0 || st.Records > 0, nil
}

// apply folds one delta record into cp.
func (cp *Checkpoint) apply(d Checkpoint) {
	cp.Pos, cp.Epoch = d.Pos, d.Epoch
	if cp.Sessions == nil {
		cp.Sessions = make(map[string]SessionSeq, len(d.Sessions))
	}
	for client, st := range d.Sessions {
		cp.Sessions[client] = st
	}
	if d.Failover != nil {
		cp.Failover = d.Failover
	}
}

// FeederConfig wires one source to one deliverer.
type FeederConfig struct {
	// Source supplies audit operations.
	Source Source
	// Deliver hands batches to the serving layer.
	Deliver Deliverer
	// Tenant stamps every event (optional; the deliverer may also
	// route by header).
	Tenant string
	// CheckpointPath is the directory of the wal.Store the resume state
	// commits to after each acknowledged batch ("" disables
	// checkpointing). A regular file there is refused.
	CheckpointPath string
	// BatchSize caps events per delivery (<= 0 means 64).
	BatchSize int
	// FlushInterval is how long after its first event a partial batch
	// is delivered anyway, however slowly more input arrives (<= 0
	// means 200ms).
	FlushInterval time.Duration
	// Idle is the sessionization cut-off (<= 0 means 10 minutes). It
	// should not exceed the server's session idle timeout, and
	// checkpoint lag must stay inside it for dedupe to hold.
	Idle time.Duration
	// FailoverRewind, when > 0, is the replication-lag bound the feeder
	// assumes when delivery fails over to a standby server (the
	// deliverer reports it via Failovers, e.g. HTTPDeliverer with a URL
	// list): anything delivered within the last FailoverRewind may not
	// have replicated yet, so on failover the feeder rewinds the source
	// and its sessionizer counters to a retained point at least that old
	// and redelivers the suffix. The standby dedupes the part it already
	// replayed from the primary's WAL and appends the missing tail —
	// exactly-once sessions across the failover. Set it comfortably
	// above the primary's snapshot/ship cadence but below the server's
	// session idle timeout. Requires a rewindable source (Tailer); other
	// sources fail over without rewinding.
	FailoverRewind time.Duration
	// Metrics is the per-source instrument view (nil drops metrics).
	Metrics *SourceMetrics

	// now is a test hook for the sessionizer clock (nil means
	// time.Now).
	now func() time.Time
}

// Feeder pumps a source into the serving layer: read, sessionize,
// deliver in batches, commit the checkpoint. Run is the whole
// lifecycle.
type Feeder struct {
	cfg  FeederConfig
	sess *Sessionizer

	// The checkpoint store (open from restore or the first commit until
	// Run returns) and where it stands against the snapshot rule: the
	// last snapshot's bytes and the delta bytes logged since.
	store     *wal.Store
	snapBytes int64
	logBytes  int64
	// stamped counts the clients recorded since the last sweep when
	// there is no store to snapshot (CheckpointPath "").
	stamped int

	// Failover-rewind state (used only when canRewind).
	canRewind bool
	fo        failoverCounter
	seenFail  int64
	active    *FailoverPoint
	pending   *FailoverPoint
}

// failoverCounter is the deliverer half of the failover handshake: a
// monotonic count of acknowledged-server changes (HTTPDeliverer with a
// URL list implements it).
type failoverCounter interface{ Failovers() int64 }

// rewindable is the source half: mid-run re-seek to an earlier
// committed position (Tailer implements it).
type rewindable interface{ Rewind(pos FilePos) error }

// NewFeeder validates the wiring.
func NewFeeder(cfg FeederConfig) (*Feeder, error) {
	if cfg.Source == nil {
		return nil, errors.New("feed: feeder needs a source")
	}
	if cfg.Deliver == nil {
		return nil, errors.New("feed: feeder needs a deliverer")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 200 * time.Millisecond
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	f := &Feeder{cfg: cfg, sess: NewSessionizer(cfg.Idle, cfg.now)}
	if cfg.FailoverRewind > 0 {
		fo, hasFo := cfg.Deliver.(failoverCounter)
		_, canSeek := cfg.Source.(rewindable)
		_, hasPos := cfg.Source.(positioned)
		if hasFo && canSeek && hasPos {
			f.canRewind, f.fo = true, fo
		}
	}
	return f, nil
}

// Run restores the checkpoint, then streams until ctx is cancelled or a
// finite source reports io.EOF (which flushes the tail and returns
// nil). On cancellation the in-flight batch is abandoned undelivered —
// it was never checkpointed, so the next run re-reads it.
func (f *Feeder) Run(ctx context.Context) error {
	defer f.closeStore()
	if err := f.restore(); err != nil {
		return err
	}
	if f.canRewind {
		f.seenFail = f.fo.Failovers()
		if f.active == nil {
			// Bootstrap rewind target: the state before anything streamed.
			// Until a commit ages past the rewind window this is the
			// oldest state there is, so a failover replays from the start
			// of the uncommitted era — never less.
			f.active = f.point(f.sess.Export(), f.sess.Epoch())
		}
	}
	batch := make([]serve.Event, 0, f.cfg.BatchSize)
	for {
		// A batch opens with its first event, and the rest of it is read
		// under one deadline FlushInterval later, however slowly it
		// trickles in.
		op, err := f.cfg.Source.Next(ctx)
		if err == nil {
			batch = append(batch, f.sess.Event(f.cfg.Tenant, op))
			bctx, cancel := context.WithTimeout(ctx, f.cfg.FlushInterval)
			batch, err = f.fillBatch(bctx, batch)
			cancel()
		}
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			return f.flush(ctx, batch)
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// The flush interval ran out on a partial batch.
		default:
			return err
		}
		if ferr := f.flush(ctx, batch); ferr != nil {
			return ferr
		}
		batch = batch[:0]
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// fillBatch reads events into batch until it is full or the source
// reports an error (bctx's deadline included).
func (f *Feeder) fillBatch(bctx context.Context, batch []serve.Event) ([]serve.Event, error) {
	for len(batch) < f.cfg.BatchSize {
		op, err := f.cfg.Source.Next(bctx)
		if err != nil {
			return batch, err
		}
		batch = append(batch, f.sess.Event(f.cfg.Tenant, op))
	}
	return batch, nil
}

// restore opens the checkpoint store, loads the state it holds and
// rewinds the source to it.
func (f *Feeder) restore() error {
	if f.cfg.CheckpointPath == "" {
		return nil
	}
	if err := f.openStore(); err != nil {
		return err
	}
	cp, ok, err := LoadCheckpoint(f.cfg.CheckpointPath)
	if err != nil || !ok {
		return err
	}
	// The deltas since the last snapshot are the active segment. That
	// snapshot's size is not kept, so until the next one the floor alone
	// decides: at most one early snapshot per restart.
	f.logBytes = f.store.SegmentBytes()
	f.sess.Restore(cp.Sessions)
	f.sess.SetEpoch(cp.Epoch)
	if p, isPos := f.cfg.Source.(positioned); isPos && cp.Pos.Kind == "file" {
		if err := p.SeekTo(cp.Pos.File); err != nil {
			return fmt.Errorf("feed: seek to checkpoint: %w", err)
		}
	}
	if f.canRewind && cp.Failover != nil {
		f.active, f.pending = cp.Failover.Active, cp.Failover.Pending
	}
	return nil
}

// openStore opens the checkpoint store unless it is open already. A
// regular file at CheckpointPath (an older feeder's single-file
// checkpoint) fails wal.Open's MkdirAll, and that error names the path.
func (f *Feeder) openStore() error {
	if f.store != nil {
		return nil
	}
	st, err := wal.OpenStore(f.cfg.CheckpointPath, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return fmt.Errorf("feed: open checkpoint store: %w", err)
	}
	f.store = st
	return nil
}

func (f *Feeder) closeStore() {
	if f.store != nil {
		// Every commit was fsynced before it returned: Close has
		// nothing acknowledged left to make durable.
		f.store.Close()
		f.store = nil
	}
}

// point captures the current source position with the given sessionizer
// counters as a failover point.
func (f *Feeder) point(sessions map[string]SessionSeq, epoch int64) *FailoverPoint {
	return &FailoverPoint{Pos: f.position(), Sessions: sessions, Epoch: epoch, At: f.cfg.now()}
}

// position is the source position a checkpoint commits.
func (f *Feeder) position() Position {
	if p, isPos := f.cfg.Source.(positioned); isPos {
		return Position{Kind: "file", File: p.Pos()}
	}
	return Position{Kind: "none"}
}

// rewind rolls the stream back to the active failover point after
// delivery switched servers: the sessionizer counters are restored so
// re-sessionizing the replayed suffix reissues identical (epoch, seq)
// labels, the source re-seeks, and the point is committed as a snapshot
// (it replaces counters, which no delta can express) so a crash
// mid-redelivery resumes behind the window too.
func (f *Feeder) rewind() error {
	pt := f.active
	f.sess = NewSessionizer(f.cfg.Idle, f.cfg.now)
	f.sess.Restore(pt.Sessions)
	f.sess.SetEpoch(pt.Epoch)
	if pt.Pos.Kind == "file" {
		if err := f.cfg.Source.(rewindable).Rewind(pt.Pos.File); err != nil {
			return fmt.Errorf("feed: failover rewind: %w", err)
		}
	}
	f.pending = nil
	f.cfg.Metrics.rewound()
	return f.snapshot(Checkpoint{
		Pos:      pt.Pos,
		Sessions: pt.Sessions,
		Epoch:    pt.Epoch,
		Failover: &FailoverState{Active: pt},
	})
}

// flush delivers the batch and, once acknowledged, commits the
// checkpoint. A deliverer reporting ErrFailover held the batch back
// because the serving side changed: the stream rewinds to the retained
// failover point (abandoning the batch — the rewound source re-produces
// it) so the new server's first events are the rewound prefix, not a
// mid-stream fragment. Without rewind support the same batch is simply
// redelivered to the new server.
func (f *Feeder) flush(ctx context.Context, batch []serve.Event) error {
	if len(batch) == 0 {
		return nil
	}
	start := time.Now()
	for {
		err := f.cfg.Deliver.Deliver(ctx, batch)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrFailover) {
			return err
		}
		if f.canRewind {
			f.seenFail = f.fo.Failovers()
			return f.rewind()
		}
	}
	f.cfg.Metrics.observeDelivery(time.Since(start).Seconds())
	if f.canRewind {
		// Safety net for deliverers that switch servers without the
		// ErrFailover handshake: a changed count after an acknowledged
		// batch still forces the rewind.
		if n := f.fo.Failovers(); n != f.seenFail {
			f.seenFail = n
			return f.rewind()
		}
	}
	return f.commit()
}

// snapshotFloor is the delta-log size below which no snapshot is
// taken, however small the last one was: under it, a snapshot's fixed
// cost (a rotation, a temp file, a rename and their fsyncs) buys no
// noticeably shorter load.
const snapshotFloor = 64 << 10

// commit makes the acknowledged batch's resume state durable before it
// counts it. Normally that is one delta record (position, epoch and
// only the clients the batch stamped) appended with one fsync. Once the
// deltas logged since the last snapshot hold at least as many bytes as
// that snapshot (and snapshotFloor), the commit writes a full snapshot
// instead, after the sweep that bounds the sessionizer's memory: the
// full-state work is amortised O(1) per event. A crash at any byte
// leaves the previous commit's state loadable.
func (f *Feeder) commit() error {
	cp := Checkpoint{Pos: f.position(), Sessions: f.sess.Delta(), Epoch: f.sess.Epoch()}
	if f.canRewind && f.agePoints() {
		cp.Failover = f.failover()
	}
	if f.cfg.CheckpointPath == "" {
		// Nothing to persist; the sweep is amortised the same way, once
		// the batches since the last one stamped as many clients as the
		// sessionizer holds.
		if f.stamped += len(cp.Sessions); f.stamped >= len(f.sess.state) {
			f.sess.Sweep()
			f.stamped = 0
		}
		return nil
	}
	if err := f.openStore(); err != nil { // a no-op once Run has restored
		return err
	}
	if f.logBytes < max(f.snapBytes, snapshotFloor) {
		err := f.logDelta(cp)
		if !errors.Is(err, wal.ErrRecordTooLarge) {
			return err
		}
		// A delta past the record cap (a huge batch, or a rotation of
		// huge failover points) commits as the snapshot below.
	}
	f.sess.Sweep()
	cp.Sessions, cp.Failover = f.sess.Export(), f.failover()
	return f.snapshot(cp)
}

// agePoints is the two-bucket aging of the failover points at a commit:
// the pending point replaces the active one once it is a full rewind
// window old, and the committed state becomes the new pending
// candidate. It reports whether the points rotated, the only commits
// whose delta record carries them.
func (f *Feeder) agePoints() bool {
	if f.pending != nil && f.cfg.now().Sub(f.pending.At) < f.cfg.FailoverRewind {
		return false
	}
	if f.pending != nil {
		f.active = f.pending
	}
	f.pending = f.point(f.sess.Export(), f.sess.Epoch())
	return true
}

// failover is the retained-points state a snapshot carries (nil without
// rewind support).
func (f *Feeder) failover() *FailoverState {
	if !f.canRewind {
		return nil
	}
	return &FailoverState{Active: f.active, Pending: f.pending}
}

// logDelta appends one commit's delta record, fsynced before it returns.
func (f *Feeder) logDelta(cp Checkpoint) error {
	b, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("feed: encode checkpoint: %w", err)
	}
	if err := f.store.Append(b); err != nil {
		return fmt.Errorf("feed: commit checkpoint: %w", err)
	}
	f.logBytes += int64(len(b))
	f.cfg.Metrics.checkpointed()
	return nil
}

// snapshot commits cp as the store's full state ("" path disables).
func (f *Feeder) snapshot(cp Checkpoint) error {
	if f.cfg.CheckpointPath == "" {
		return nil
	}
	b, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("feed: encode checkpoint: %w", err)
	}
	if err := f.store.Snapshot(b); err != nil {
		return fmt.Errorf("feed: snapshot checkpoint: %w", err)
	}
	f.snapBytes, f.logBytes = int64(len(b)), 0
	f.cfg.Metrics.checkpointed()
	return nil
}
