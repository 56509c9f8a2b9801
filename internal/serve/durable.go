package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/obs"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/wal"
)

// DurabilityConfig enables crash-safe serving: every accepted event is
// written to a write-ahead log and the log committed before the ingest
// call returns, open sessions are periodically snapshotted, and a
// restarted Service rebuilds the assemblers from "newest snapshot + WAL
// suffix" — the long-lived streaming state the paper's whole-session
// detector depends on survives a deploy or a kill -9.
//
// The WAL directory holds one stream per ingest shard
// (wal-shard-NN-*.log / snap-shard-NN-*.snap) named by a layout
// manifest (wal.Manifest). Restore replays the streams in parallel and,
// when the on-disk shard count differs from the configured one,
// migrates through the crash-safe remap protocol documented in
// internal/wal.
type DurabilityConfig struct {
	// Dir holds the WAL segments, snapshots and the layout manifest.
	Dir string
	// Fsync selects when appended records reach stable storage (see
	// wal.SyncPolicy). Under SyncAlways an acknowledged event is
	// guaranteed to be restored after any crash: IngestBatch fsyncs each
	// shard stream its request touched once, before it returns — one
	// fsync per touched stream per request, not one per event.
	Fsync wal.SyncPolicy
	// SegmentBytes caps a WAL segment before rotation (0 means 64 MiB).
	SegmentBytes int64
	// SnapshotEvery is the background snapshot/compaction period
	// (0 disables the loop; SnapshotNow still works and Close always
	// takes a final snapshot).
	SnapshotEvery time.Duration
	// Checkpoints, if non-nil, receives an atomic model checkpoint after
	// every fine-tune round; a checkpoint that fails validation is
	// rolled back to the last good one.
	Checkpoints *wal.Checkpoints
}

// RestoreStats summarizes one Service.Restore.
type RestoreStats struct {
	// Sessions is the number of open sessions restored.
	Sessions int
	// Records is the number of WAL records replayed, summed over every
	// shard stream.
	Records int
	// SnapshotSeq is the highest snapshot anchor across the restored
	// streams (0 = none found).
	SnapshotSeq uint64
	// CleanSeal reports whether every stream ended with a
	// clean-shutdown seal record; false means the previous process
	// crashed (or the layout was just migrated).
	CleanSeal bool
	// TornTail reports whether a crash tail was truncated on any stream.
	TornTail bool
}

// WAL record types. Records are JSON with a one-letter type tag; the
// framing, checksumming and torn-tail handling live in internal/wal.
const (
	recEvent    = "ev"   // one accepted operation appended to a session
	recClose    = "cl"   // a session left the assembler (idle close-out or flush)
	recRollback = "rb"   // a backpressure rollback undid the tail operation
	recSeal     = "seal" // clean shutdown marker
)

type walRecord struct {
	T      string    `json:"t"`
	Client string    `json:"c,omitempty"`
	SID    string    `json:"s,omitempty"`
	Pos    int       `json:"p,omitempty"`
	User   string    `json:"u,omitempty"`
	Addr   string    `json:"a,omitempty"`
	SQL    string    `json:"q,omitempty"`
	TS     time.Time `json:"ts"`
	// Epoch/Seq are the event's sender-side dedupe coordinates
	// (Event.Epoch/Event.Seq), replayed so redelivery fencing survives
	// recovery; on a rollback record, those of the event it undid. Absent
	// on pre-epoch logs and on epoch-less events.
	Epoch int64 `json:"e,omitempty"`
	Seq   int64 `json:"n,omitempty"`
}

// snapState is a snapshot payload: open-session state plus the
// session-id counter. A shard stream's snapshot holds that shard's
// sessions; the remap staging file holds the merged state of every
// shard. Both decode identically — the payload is layout-independent,
// sessions re-route by client hash on restore.
type snapState struct {
	Seq      int            `json:"seq"`
	Sessions []SessionState `json:"sessions"`
}

// Restore opens the durability layer, rebuilds the assemblers from each
// shard stream's newest valid snapshot plus its WAL suffix (replaying
// the streams in parallel), and goes live. It must be called (once)
// before Start and before the first Ingest; without it a
// durability-configured Service rejects events with ErrNotReady so no
// accepted event can ever bypass the log. With Config.Durability nil it
// is a no-op.
//
// When the manifest's shard count differs from the configured one,
// Restore recovers the old layout first, then migrates it with the
// staged remap protocol: the merged state is durably written to
// wal.RemapFile, the manifest flips to remap:true (the commit point),
// the old stream files are deleted and fresh per-shard streams are
// seeded. A crash at any step either recovers the old layout untouched
// or resumes from the staging file.
//
// A directory that holds stream files but no manifest is refused, never
// read and never treated as fresh: its layout is unknown (a lost
// manifest, or a pre-sharding single-stream directory).
func (s *Service) Restore() (RestoreStats, error) {
	var st RestoreStats
	d := s.cfg.Durability
	if d == nil {
		return st, nil
	}
	if s.ready.Load() || !s.restoreOnce.CompareAndSwap(false, true) {
		return st, fmt.Errorf("serve: Restore called twice (or on a promoted standby)")
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return st, err
	}
	n := len(s.shards)
	man, ok, err := wal.LoadManifest(d.Dir)
	if err != nil {
		return st, err
	}
	switch {
	case !ok:
		if streams, serr := wal.HasStreamFiles(d.Dir); serr != nil {
			return st, serr
		} else if streams {
			return st, fmt.Errorf("serve: %s holds WAL stream files but no %s, so its layout is unknown: "+
				"write {\"version\":%d,\"shards\":N} there for N wal-shard-NN-* streams "+
				"(a pre-sharding wal-<seq>.log directory must be restarted once on a PR 8-11 build first), "+
				"or move the stream files away to start fresh",
				d.Dir, wal.ManifestName, wal.ManifestVersion)
		}
		// Fresh directory: name the layout, then open empty streams.
		if err := wal.SaveManifest(d.Dir, wal.Manifest{Version: wal.ManifestVersion, Shards: n}); err != nil {
			return st, err
		}
		if err := s.recoverStreams(d, n, true, &st); err != nil {
			return st, err
		}
	case man.Remap:
		if err := s.resumeRemap(d, man); err != nil {
			return st, err
		}
	case man.Shards == n:
		if err := s.recoverStreams(d, n, true, &st); err != nil {
			return st, err
		}
		// A remap that crashed before its manifest flip may have left a
		// staging file behind; the old layout is authoritative.
		os.Remove(filepath.Join(d.Dir, wal.RemapFile))
	default:
		// Shard-count resize: recover the old layout into the (new)
		// hash-routed shards, then migrate the streams.
		if err := s.recoverStreams(d, man.Shards, false, &st); err != nil {
			return st, err
		}
		if err := s.remapTo(d, man.Shards); err != nil {
			return st, err
		}
	}
	st.Sessions = s.openCount()
	s.recovered.Store(int64(st.Sessions))
	s.goLive(d)
	return st, nil
}

// goLive is the one step that turns a durable service into a serving
// one, shared by Restore and PromoteToServing: the shard stores are
// open and hold everything the assemblers do. It installs the
// checkpoint store (a standby must not write checkpoints into the
// directory it mirrors), publishes ready — the store the Ingest path
// loads before it touches a shard's stream — and starts the snapshot
// loop.
func (s *Service) goLive(d *DurabilityConfig) {
	s.ckpts = d.Checkpoints
	s.ready.Store(true)
	if d.SnapshotEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(d.SnapshotEvery)
	}
}

// openStores opens every shard's stream on the WAL directory, or none:
// on error the ones already opened are closed again.
func (s *Service) openStores(d *DurabilityConfig) error {
	for i, sh := range s.shards {
		store, err := wal.OpenStore(d.Dir, s.walOptions(d, i))
		if err != nil {
			s.closeStores()
			return err
		}
		sh.store = store
	}
	return nil
}

// closeStores closes and uninstalls whatever shard streams are open
// (the undo of openStores; only reachable before goLive).
func (s *Service) closeStores() {
	for _, sh := range s.shards {
		if sh.store != nil {
			sh.store.Close()
			sh.store = nil
		}
	}
}

// walOptions builds shard i's stream open options.
func (s *Service) walOptions(d *DurabilityConfig, i int) wal.Options {
	m := s.metrics
	return wal.Options{
		SegmentBytes:   d.SegmentBytes,
		Sync:           d.Fsync,
		OnAppend:       func(int) { m.walAppends.Inc() },
		OnSync:         func(took time.Duration) { m.walFsyncSeconds.Observe(took.Seconds()) },
		SegmentPrefix:  wal.ShardSegmentPrefix(i),
		SnapshotPrefix: wal.ShardSnapshotPrefix(i),
	}
}

// recoverStreams opens and recovers m streams concurrently, routing
// every restored session and replayed record to the shard its client
// hashes to (a client's records live entirely within one stream — the
// writer hashed with the same function — so per-client replay order is
// preserved; the assemblers serialize concurrent mutation internally).
// With keep the stores are installed as the shards' streams (valid only
// when m equals the shard count and the prefixes match); otherwise they
// are closed after recovery — the remap path reopens fresh ones.
func (s *Service) recoverStreams(d *DurabilityConfig, m int, keep bool, st *RestoreStats) error {
	stores := make([]*wal.Store, m)
	stats := make([]RestoreStats, m)
	recs := make([]wal.RecoverStats, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			store, err := wal.OpenStore(d.Dir, s.walOptions(d, i))
			if err != nil {
				errs[i] = err
				return
			}
			stores[i] = store
			recs[i], errs[i] = store.Recover(s.restoreSnapshot, func(b []byte) error {
				return s.replayPayload(b, &stats[i])
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, store := range stores {
				if store != nil {
					store.Close()
				}
			}
			return err
		}
	}
	st.CleanSeal = true
	for i := range recs {
		st.Records += recs[i].Records
		if recs[i].SnapshotSeq > st.SnapshotSeq {
			st.SnapshotSeq = recs[i].SnapshotSeq
		}
		st.TornTail = st.TornTail || recs[i].TornTail
		st.CleanSeal = st.CleanSeal && stats[i].CleanSeal
	}
	if keep {
		for i, sh := range s.shards {
			sh.store = stores[i]
		}
		return nil
	}
	for _, store := range stores {
		store.Close()
	}
	return nil
}

// remapTo migrates the in-memory state (just recovered from an old
// layout of `from` streams) onto the configured shard count.
// The staged state file plus the remap-flagged manifest form the commit
// point; see the protocol notes in internal/wal/manifest.go.
func (s *Service) remapTo(d *DurabilityConfig, from int) error {
	seq, sessions := s.exportAll()
	b, err := json.Marshal(snapState{Seq: seq, Sessions: sessions})
	if err != nil {
		return err
	}
	if err := wal.WriteStateFile(filepath.Join(d.Dir, wal.RemapFile), b); err != nil {
		return err
	}
	if err := wal.SaveManifest(d.Dir, wal.Manifest{
		Version: wal.ManifestVersion, Shards: len(s.shards), Remap: true, From: from,
	}); err != nil {
		return err
	}
	return s.finishRemap(d)
}

// resumeRemap finishes a migration a crash interrupted past its commit
// point: the staging file is authoritative (the old streams may be
// partially deleted). A boot configured for a different shard count
// than the interrupted migration targeted simply retargets — the staged
// payload is layout-independent.
func (s *Service) resumeRemap(d *DurabilityConfig, man wal.Manifest) error {
	b, err := wal.ReadStateFile(filepath.Join(d.Dir, wal.RemapFile))
	if err != nil {
		return fmt.Errorf("serve: remap staging file unreadable: %w", err)
	}
	if err := s.restoreSnapshot(b); err != nil {
		return err
	}
	if n := len(s.shards); n != man.Shards {
		if err := wal.SaveManifest(d.Dir, wal.Manifest{
			Version: wal.ManifestVersion, Shards: n, Remap: true, From: man.From,
		}); err != nil {
			return err
		}
	}
	return s.finishRemap(d)
}

// finishRemap runs the post-commit steps of a migration: delete every
// old stream file, then seed fresh per-shard streams (seedStores).
// Idempotent — a crash anywhere here re-runs it from the staging file
// on the next boot.
func (s *Service) finishRemap(d *DurabilityConfig) error {
	if err := wal.RemoveAllStreams(d.Dir); err != nil {
		return err
	}
	return s.seedStores(d)
}

// seedStores makes d.Dir the durable home of exactly what the
// assemblers hold: it opens every shard's stream, anchors each on a
// snapshot of that shard's sessions, names the layout in the manifest
// (clearing any remap flag) and drops the remap staging file. The tail
// of a shard remap and the whole of a standby's promotion; on error the
// streams are closed again and nothing was published.
func (s *Service) seedStores(d *DurabilityConfig) error {
	if err := s.openStores(d); err != nil {
		return err
	}
	err := s.snapshotShards()
	if err == nil {
		err = wal.SaveManifest(d.Dir, wal.Manifest{Version: wal.ManifestVersion, Shards: len(s.shards)})
	}
	if err != nil {
		s.closeStores()
		return err
	}
	os.Remove(filepath.Join(d.Dir, wal.RemapFile))
	return nil
}

// restoreSnapshot rebuilds assembler state from a snapshot payload,
// routing each session to the shard its client hashes to and
// re-tokenizing every statement with the trained vocabulary (the
// vocabulary is fixed after training, so the key windows come back
// byte-exact). The session-id floor applies to every shard — ids must
// stay unique across any past or future layout.
func (s *Service) restoreSnapshot(b []byte) error {
	var snap snapState
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("serve: undecodable snapshot: %w", err)
	}
	key := s.model.Load().ucad.Vocab.Key
	for _, ss := range snap.Sessions {
		keys := make([]int, len(ss.Ops))
		for i := range ss.Ops {
			keys[i] = key(ss.Ops[i].SQL)
			ss.Ops[i].Key = keys[i]
		}
		s.shardFor(ss.Client).asm.Restore(ss, keys)
	}
	for _, sh := range s.shards {
		sh.asm.SetSeqFloor(snap.Seq)
	}
	return nil
}

// replayPayload decodes and applies one WAL record on top of the
// restored snapshot, routed by client hash — the replay half of both
// Restore and a standby's ReplicaApplyRecord. Application is idempotent
// (see Assembler.ReplayAppend), so records the snapshot already covers
// are dropped, never duplicated.
func (s *Service) replayPayload(b []byte, st *RestoreStats) error {
	var r walRecord
	if err := json.Unmarshal(b, &r); err != nil {
		// An undecodable-but-checksummed record is a version skew bug,
		// not a torn tail; surface it.
		return fmt.Errorf("serve: undecodable wal record: %w", err)
	}
	switch r.T {
	case recEvent:
		key := s.model.Load().ucad.Vocab.Key(r.SQL)
		s.shardFor(r.Client).asm.ReplayAppend(r.Client, r.SID, r.Pos, session.Operation{
			Time: r.TS, User: r.User, Addr: r.Addr, SQL: r.SQL,
		}, key, r.Epoch, r.Seq)
	case recClose:
		s.shardFor(r.Client).asm.ReplayClose(r.Client, r.SID)
	case recRollback:
		s.shardFor(r.Client).asm.ReplayRollback(r.Client, r.SID, r.Pos, r.Epoch, r.Seq)
	case recSeal:
		st.CleanSeal = true
	}
	return nil
}

// appendWAL marshals one record and writes it to the stream without
// forcing it to disk: its durability point is the caller's next
// store.Commit (or the Close that seals the stream). The caller holds
// the shard's durMu when the record must stay ordered with an assembler
// mutation.
func (s *Service) appendWAL(store *wal.Store, r walRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return store.AppendDeferred(b)
}

// ingestDurable is the assemble-and-log step when durability is on: the
// assembler mutation and the write of its WAL record happen atomically
// with respect to snapshot capture (the shard's durMu). The record is
// not durable yet — IngestBatch commits the stream before the event is
// acknowledged. A WAL write failure undoes the append and rejects the
// event — nothing enters a session that the log cannot replay.
func (s *Service) ingestDurable(sh *shard, ev Event, key, window int) (Appended, error) {
	client := ev.Client()
	sh.durMu.Lock()
	defer sh.durMu.Unlock()
	ap := sh.asm.Append(ev, key, window+1)
	if ap.Dup {
		// A redelivery mutated nothing, so there is nothing to log: the
		// original append's WAL record already covers this position.
		return ap, nil
	}
	err := s.appendWAL(sh.store, walRecord{
		T: recEvent, Client: client, SID: ap.SessionID, Pos: ap.Pos,
		User: ev.User, Addr: ev.Addr, SQL: ev.SQL, TS: ap.Time,
		Epoch: ev.Epoch, Seq: ev.Seq,
	})
	if err != nil {
		sh.asm.Rollback(client, ap.Pos, ev.Epoch, ev.Seq)
		return ap, fmt.Errorf("serve: wal append: %w", err)
	}
	return ap, nil
}

// commitBatch is the durability point of one request: every shard
// stream the request touched is committed once (concurrently when more
// than one — the fsyncs of different files overlap), and only then are
// its pending events counted accepted. A stream whose commit fails
// rejects every event of the request on it, newest first so each is
// still its session's tail when it is rolled back.
func (s *Service) commitBatch(b *batch, errs []error) {
	cerrs := make([]error, len(s.shards))
	commit := func(i int) { cerrs[i] = s.shards[i].store.Commit() }
	var wg sync.WaitGroup
	first := -1 // committed on this goroutine, the others beside it
	for i, touched := range b.touched {
		switch {
		case !touched:
		case first < 0:
			first = i
		default:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				commit(i)
			}(i)
		}
	}
	if first >= 0 {
		commit(first)
	}
	wg.Wait()
	for k := len(b.pend) - 1; k >= 0; k-- {
		p := b.pend[k]
		err := cerrs[p.sh.idx]
		switch {
		case err != nil:
			if !p.dup {
				s.rollbackLogged(p.sh, p.client, p.sessionID, p.pos, p.epoch, p.seq)
			}
			s.rejected.Add(1)
			errs[p.i] = fmt.Errorf("serve: wal commit: %w", err)
		case !p.dup:
			s.accepted.Add(1)
		}
	}
}

// rollbackLogged undoes the tail operation after a scoring-queue
// rejection or a failed commit, logging the rollback so recovery
// replays the undo too. The record is written, not committed: the
// request's commitBatch covers it before the rejection is answered.
func (s *Service) rollbackLogged(sh *shard, client, sessionID string, pos int, epoch, seq int64) {
	if sh.store == nil {
		sh.asm.Rollback(client, pos, epoch, seq)
		return
	}
	sh.durMu.Lock()
	if sh.asm.Rollback(client, pos, epoch, seq) {
		s.appendWAL(sh.store, walRecord{T: recRollback, Client: client, SID: sessionID, Pos: pos, Epoch: epoch, Seq: seq})
	}
	sh.durMu.Unlock()
}

// closeAllLogged closes sessions shard by shard — all of them, or only
// those idle past the timeout — logging one close record per closed
// session under the shard's durMu, so recovery never resurrects a
// session that already received its authoritative verdict. The records
// of one shard share one commit: a sweep that closes N sessions holds
// that shard's ingest for one fsync, not N.
func (s *Service) closeAllLogged(idleOnly bool) []Closed {
	var all []Closed
	for _, sh := range s.shards {
		sh.durMu.Lock()
		var closed []Closed
		if idleOnly {
			closed = sh.asm.CloseIdle()
		} else {
			closed = sh.asm.CloseAll()
		}
		if sh.store != nil && len(closed) > 0 {
			for _, c := range closed {
				s.appendWAL(sh.store, walRecord{T: recClose, Client: c.Client, SID: c.Session.ID})
			}
			// Best effort, like the writes: the verdicts are already out, and
			// a lost close record only makes recovery reopen a session that
			// idles out again.
			_ = sh.store.Commit()
		}
		sh.durMu.Unlock()
		all = append(all, closed...)
	}
	return all
}

// SnapshotNow captures every shard's open sessions under a
// stop-the-world barrier (all shard durMus, acquired in index order)
// and commits one durable snapshot per stream, pruning the WAL segments
// each snapshot supersedes. Only the capture and segment rotation
// happen inside the barrier; serialization and the commit fsyncs run
// off the ingest path. No-op on a service that is not live (without
// durability, or before Restore/promotion).
func (s *Service) SnapshotNow() error {
	if !s.ready.Load() {
		return nil
	}
	return s.snapshotShards()
}

// snapshotShards is SnapshotNow on whatever stores are open; promotion
// calls it before goLive to seal the replication era.
func (s *Service) snapshotShards() error {
	t := obs.StartTimer(s.metrics.snapshotSeconds)
	defer t.Stop()
	type cut struct {
		anchor uint64
		state  snapState
	}
	cuts := make([]cut, len(s.shards))
	var err error
	for _, sh := range s.shards {
		sh.durMu.Lock()
	}
	for i, sh := range s.shards {
		seq, sessions := sh.asm.Export()
		var anchor uint64
		if anchor, err = sh.store.BeginSnapshot(); err != nil {
			break
		}
		cuts[i] = cut{anchor: anchor, state: snapState{Seq: seq, Sessions: sessions}}
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].durMu.Unlock()
	}
	if err != nil {
		return err
	}
	for i, sh := range s.shards {
		b, merr := json.Marshal(cuts[i].state)
		if merr != nil {
			return merr
		}
		if cerr := sh.store.CommitSnapshot(cuts[i].anchor, b); cerr != nil {
			return cerr
		}
	}
	return nil
}

func (s *Service) snapshotLoop(every time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.SnapshotNow()
		case <-s.snapStop:
			return
		}
	}
}

// sealAndCloseStore takes the final snapshot, appends each stream's
// clean-seal record and closes the logs, whose final fsync is the
// seal's commit (shutdown tail of Close/Stop).
func (s *Service) sealAndCloseStore() error {
	if !s.ready.Load() {
		return nil
	}
	err := s.SnapshotNow()
	for _, sh := range s.shards {
		if serr := s.appendWAL(sh.store, walRecord{T: recSeal}); err == nil {
			err = serr
		}
		if cerr := sh.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// CheckpointModel writes an atomic model checkpoint and validates it by
// loading it back; a checkpoint core.Load rejects is rolled back so the
// manifest always points at a loadable model. Called after fine-tune
// rounds and after an admin hot model swap. No-op without a configured
// Checkpoints store.
func (s *Service) CheckpointModel() { s.checkpointModel() }

func (s *Service) checkpointModel() {
	if s.ckpts == nil {
		return
	}
	path, err := s.ckpts.Save(s.online.Save)
	if err != nil {
		s.ckptErrors.Add(1)
		return
	}
	if err := verifyCheckpoint(path); err != nil {
		s.ckptErrors.Add(1)
		s.ckpts.Rollback()
	}
}

// verifyCheckpoint proves a checkpoint file loads back into a detector.
func verifyCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = core.Load(f)
	return err
}
