package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"github.com/ucad/ucad/internal/wal"
)

// Warm-standby support. A Service built with Config.Replica is a live
// scoring pipeline that never serves: a replication follower
// (internal/replica) feeds it the primary's shipped snapshots and WAL
// records through the Replica* entry points below, so its assemblers
// track the primary with sealed-segment granularity and its model stays
// current via shipped checkpoints. PromoteToServing is the failover
// flip: it opens the standby's own WAL streams on the replicated
// directory, seals the replication stream with a fresh snapshot, and
// starts accepting traffic — the same "newest snapshot + idempotent
// replay" contract a restart relies on, applied across machines.

// Replica-mode errors. ErrNotReplica maps to HTTP 409 in the admin API:
// promoting twice (or promoting a primary) is a refused state change,
// not a retryable fault.
var (
	ErrNotReplica = errors.New("serve: not an unpromoted replica")
)

// IsReplica reports whether the service is a warm standby that has not
// been promoted yet.
func (s *Service) IsReplica() bool { return s.replica.Load() }

// replicaGuard rejects replica-only operations on a non-replica.
func (s *Service) replicaGuard() error {
	if s.stopped.Load() {
		return ErrStopped
	}
	if !s.replica.Load() {
		return ErrNotReplica
	}
	return nil
}

// ReplicaReset drops every open session — the rebuild path after a
// replication gap (the follower fell behind far enough that the primary
// pruned the next segment it needed): the caller re-restores from the
// newest shipped snapshot and replays the remaining segments, exactly
// like a restart recovery. Session-id counters are kept so ids never
// move backwards across the rebuild.
func (s *Service) ReplicaReset() error {
	if err := s.replicaGuard(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.asm.Reset()
	}
	return nil
}

// ReplicaRestoreSnapshot applies one shipped snapshot payload (a shard
// stream's snap-*.snap, or the remap staging file): sessions re-route
// by client hash and re-tokenize against the current model, and the
// session-id floor rises. Idempotent on top of replayed state — restore
// and replay converge regardless of which shipped files arrive first
// within one stream's snapshot+suffix order.
func (s *Service) ReplicaRestoreSnapshot(payload []byte) error {
	if err := s.replicaGuard(); err != nil {
		return err
	}
	return s.restoreSnapshot(payload)
}

// ReplicaApplyRecord replays one shipped WAL record. Application is
// idempotent (Assembler.ReplayAppend), so overlap between a shipped
// snapshot and the sealed segments around it is absorbed, never
// duplicated.
func (s *Service) ReplicaApplyRecord(payload []byte) error {
	if err := s.replicaGuard(); err != nil {
		return err
	}
	var r walRecord
	if err := json.Unmarshal(payload, &r); err != nil {
		return fmt.Errorf("serve: undecodable wal record: %w", err)
	}
	s.replayRecord(r, &RestoreStats{})
	return nil
}

// PromoteToServing flips a warm standby live. Under the all-shard durMu
// barrier it opens one WAL stream per shard on the replicated directory
// (whose manifest must name the same shard count the replica was built
// with), installs the durability config, and clears the replica flag;
// then it seals the replication era with a fresh snapshot of the
// replayed state, so the standby's own WAL anchors on everything it
// absorbed and the shipped history it rode in on becomes prunable.
// Session-id floors were maintained throughout replay, so sessions
// opened after promotion never reuse a pre-failover id.
//
// d may be nil for a non-durable promotion (tests, throwaway standbys).
// The caller starts the idle sweeper afterwards (Service.Start) and
// re-routes traffic; a second promotion fails with ErrNotReplica.
func (s *Service) PromoteToServing(d *DurabilityConfig) error {
	if err := s.replicaGuard(); err != nil {
		return err
	}
	if d == nil {
		s.cfg.Durability = nil
		s.promotions.Add(1)
		s.replica.Store(false)
		return nil
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return err
	}
	n := len(s.shards)
	man, ok, err := wal.LoadManifest(d.Dir)
	if err != nil {
		return err
	}
	if ok && man.Shards != n {
		return fmt.Errorf("serve: promote: replicated layout has %d shards, replica was built with %d", man.Shards, n)
	}
	if !ok {
		if err := wal.SaveManifest(d.Dir, wal.Manifest{Version: wal.ManifestVersion, Shards: n}); err != nil {
			return err
		}
	}
	for _, sh := range s.shards {
		sh.durMu.Lock()
	}
	for i, sh := range s.shards {
		store, oerr := wal.OpenStore(d.Dir, s.walOptions(d, i))
		if oerr != nil {
			err = oerr
			break
		}
		sh.store = store
	}
	if err != nil {
		for _, sh := range s.shards {
			if sh.store != nil {
				sh.store.Close()
				sh.store = nil
			}
		}
		for i := n - 1; i >= 0; i-- {
			s.shards[i].durMu.Unlock()
		}
		return err
	}
	s.cfg.Durability = d
	s.ckpts = d.Checkpoints
	s.restoreOnce.Store(true) // the replicated state IS the restore
	s.ready.Store(true)
	s.promotions.Add(1)
	// The replica-flag store publishes the config writes above: an
	// Ingest that observes replica==false also observes the durability
	// wiring (see the load in Ingest).
	s.replica.Store(false)
	for i := n - 1; i >= 0; i-- {
		s.shards[i].durMu.Unlock()
	}
	// Seal the replication era: anchor every stream on the state just
	// replayed. New appends land after this snapshot's cut.
	if err := s.SnapshotNow(); err != nil {
		return err
	}
	if d.SnapshotEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(d.SnapshotEvery)
	}
	return nil
}

// WarmScoreCache pre-populates the model's score cache with the
// similarity rows live traffic will ask for first: every scoring-window
// context of the currently open sessions (the same windows the engine
// scores on the next append). It returns how many rows were actually
// computed — contexts already cached count as hits, so warming after an
// incremental replay round is cheap and self-limiting. limit bounds the
// contexts scored (<= 0 means all). Call it while quiesced (after
// Restore, or on a standby between replay rounds); a nil score cache
// returns 0.
func (s *Service) WarmScoreCache(limit int) int {
	cache := s.online.Detector().Model.ScoreCache()
	if cache == nil {
		return 0
	}
	mb := s.model.Load()
	_, sessions := s.exportAll()
	before := cache.Stats().Misses
	var (
		ctxs [][]int
		keys []int
		dst  []int
	)
	flush := func() {
		if len(ctxs) > 0 {
			dst = s.online.RankBatch(dst[:0], ctxs, keys)
			ctxs, keys = ctxs[:0], keys[:0]
		}
	}
	total := 0
warm:
	for _, ss := range sessions {
		ks := make([]int, len(ss.Ops))
		for i := range ss.Ops {
			ks[i] = ss.Ops[i].Key
		}
		for i := mb.minContext; i < len(ks); i++ {
			if limit > 0 && total >= limit {
				break warm
			}
			lo := i - mb.window
			if lo < 0 {
				lo = 0
			}
			ctxs = append(ctxs, ks[lo:i])
			keys = append(keys, ks[i])
			total++
			if len(ctxs) >= 256 {
				flush()
			}
		}
	}
	flush()
	warmed := int(cache.Stats().Misses - before)
	s.cacheWarmed.Add(int64(warmed))
	return warmed
}

// ExportSessions snapshots every open session across shards, sorted by
// client — the status surface replicas report and the failover tests
// compare. Each shard's view is internally consistent; the merge is not
// an atomic cross-shard cut (quiesce first when exactness matters).
func (s *Service) ExportSessions() []SessionState {
	_, sessions := s.exportAll()
	return sessions
}
