package serve

import (
	"errors"
	"fmt"

	"github.com/ucad/ucad/internal/wal"
)

// Warm-standby support. A warm standby is a durable Service that has not
// gone live yet: it is built over its own synced WAL directory
// (Config.Durability names it from the start) and, where a restarting
// primary calls Restore once, a replication follower (internal/replica)
// keeps feeding it the primary's shipped snapshots and WAL records
// through the Replica* entry points below — the same restoreSnapshot
// and replayPayload Restore drives, fed by the same wal recovery loop —
// so its assemblers track the primary with sealed-segment granularity.
// PromoteToServing is the step Restore ends on, taken later: seed the
// shard streams on the directory from what was replayed, goLive.

// ErrNotReplica maps to HTTP 409 in the admin API: promoting twice (or
// promoting a primary) is a refused state change, not a retryable
// fault.
var ErrNotReplica = errors.New("serve: not an unpromoted replica")

// IsReplica reports whether the service is durable but not live: a warm
// standby that has not been promoted (or a primary whose Restore has not
// run). It is exactly the state in which Ingest answers ErrNotReady.
func (s *Service) IsReplica() bool { return s.cfg.Durability != nil && !s.ready.Load() }

// replicaGuard rejects replica-only operations on a non-replica.
func (s *Service) replicaGuard() error {
	if s.stopped.Load() {
		return ErrStopped
	}
	if !s.IsReplica() {
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
		sh.mu.Lock()
		sh.asm.Reset()
		sh.mu.Unlock()
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
	return s.replayPayload(payload, &RestoreStats{})
}

// PromoteToServing takes a warm standby live, all or nothing. It opens
// one WAL stream per shard on the synced directory (whose manifest must
// name the shard count the standby was built with), seals the
// replication era with a snapshot of the replayed state — so the
// standby's own WAL anchors on everything it absorbed and the shipped
// history it rode in on becomes prunable — and only then goes live. Any
// failure closes the streams again and leaves a promotable replica.
// Session-id floors were maintained throughout replay, so sessions
// opened after promotion never reuse a pre-failover id.
//
// Quiesce replay first (stop the follower). The caller starts the idle
// sweeper afterwards (Service.Start) and re-routes traffic; a second
// promotion fails with ErrNotReplica.
func (s *Service) PromoteToServing() error {
	if err := s.replicaGuard(); err != nil {
		return err
	}
	d, n := s.cfg.Durability, len(s.shards)
	man, ok, err := wal.LoadManifest(d.Dir)
	if err != nil {
		return err
	}
	if ok && man.Shards != n {
		return fmt.Errorf("serve: promote: replicated layout has %d shards, replica was built with %d", man.Shards, n)
	}
	if err := s.seedStores(d); err != nil {
		return err
	}
	s.promotions.Add(1)
	s.goLive(d)
	return nil
}

// WarmScoreCache pre-populates the model's score cache with the
// similarity rows live traffic will ask for first: every scoring-window
// context of the currently open sessions, up to and including the one
// the next appended event is ranked against (rows are keyed by context
// alone; the key passed only ranks the row). It returns how many rows
// were actually computed — contexts already cached count as hits, so
// warming after an incremental replay round is cheap and self-limiting.
// Call it while quiesced (after Restore, or on a standby between replay
// rounds); a nil score cache returns 0.
func (s *Service) WarmScoreCache() int {
	mb := s.model.Load()
	cache := mb.cache
	if cache == nil {
		return 0
	}
	_, sessions := s.exportAll()
	before := cache.Stats().Misses
	var (
		ctxs [][]int
		keys []int
		dst  []int
	)
	flush := func() {
		if len(ctxs) > 0 {
			dst = mb.ucad.Model.RankBatch(dst[:0], ctxs, keys)
			ctxs, keys = ctxs[:0], keys[:0]
		}
	}
	for _, ss := range sessions {
		// One slot past the last op for the next event's key: it only
		// ranks the row, never enters a context.
		ks := make([]int, len(ss.Ops)+1)
		for i := range ss.Ops {
			ks[i] = ss.Ops[i].Key
		}
		for i := mb.minContext; i < len(ks); i++ {
			ctxs = append(ctxs, ks[max(0, i-mb.window):i])
			keys = append(keys, ks[i])
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
