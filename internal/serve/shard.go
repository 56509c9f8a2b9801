package serve

import (
	"sort"
	"sync"

	"github.com/ucad/ucad/internal/wal"
)

// shard is one partition of the ingest plane. Sessions are routed to a
// shard by consistent hash of their client id, and everything stateful
// about ingest — the session map, the Seq/epoch dedupe marks, idle
// close-out, and the log-before-ack WAL stream — lives shard-local, so
// two events for clients on different shards never contend on a lock
// or serialize on an fsync.
type shard struct {
	idx int

	// mu is the one lock on the shard's session state: every asm call
	// runs under it, and an event's tokenization, append and WAL record
	// happen in one critical section (Service.assemble), so they are
	// atomic with respect to snapshot capture and model swaps. The
	// cross-shard barrier (snapshots, SwapModel) acquires every shard's
	// mu in index order; no other path holds two at once.
	mu  sync.Mutex
	asm *Assembler
	// store is the shard's own WAL segment stream (wal-shard-NN-*.log
	// under the tenant's WAL dir); nil without durability, installed by
	// Restore or PromoteToServing before goLive publishes the ready flag.
	store *wal.Store
	// walBuf is appendWAL's encode buffer, reused record after record
	// under mu (the stream copies each record into its own frame); one
	// grown past maxPooledBody is let go, as the request body buffer is.
	walBuf []byte
}

// shardIndex hashes a client id onto one of n shards (FNV-1a). The
// tenant dimension is already partitioned — each tenant has its own
// Service — so the client id alone spreads that tenant's sessions.
func shardIndex(client string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(client); i++ {
		h ^= uint32(client[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// shardFor routes a client id to its owning shard.
func (s *Service) shardFor(client string) *shard {
	return s.shards[shardIndex(client, len(s.shards))]
}

// openCount sums open sessions across shards.
func (s *Service) openCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.asm.OpenCount()
		sh.mu.Unlock()
	}
	return n
}

// asmCounts sums lifetime opened/closed session counts across shards.
func (s *Service) asmCounts() (opened, closed int64) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		o, c := sh.asm.Counts()
		sh.mu.Unlock()
		opened += o
		closed += c
	}
	return opened, closed
}

// exportAll merges every shard's open-session export into one
// client-sorted state; the returned seq is the highest shard counter,
// so a SetSeqFloor on any layout keeps restored ids unique. It takes
// no cross-shard barrier — each shard's export is consistent, the merge
// is not a cut across shards; callers needing one against concurrent
// ingest quiesce ingestion first.
func (s *Service) exportAll() (seq int, out []SessionState) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sq, st := sh.asm.Export()
		sh.mu.Unlock()
		if sq > seq {
			seq = sq
		}
		out = append(out, st...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return seq, out
}
