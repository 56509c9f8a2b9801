package feed

import (
	"time"

	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
)

// Sessionizer turns a stream of audit operations into serve events
// grouped by (client, connection): each operation is stamped with the
// session's next 1-based sequence number plus the session's epoch, and
// a client idle past the cut-off starts a fresh session under a new
// epoch. Idle gaps are measured in event time (the log's timestamps),
// and so is Sweep: the sessionizer keeps a stream clock — the maximum
// event timestamp seen — so catching up on a backlog of old records
// never mistakes live counters for stale ones the way a wall-clock
// sweep would. The epoch is what lets the serving layer tell a
// post-gap session (Seq restarting at 1 under a higher epoch) apart
// from a redelivery of the previous one.
//
// Its counters are part of the feeder's resume state: Export/Restore
// round-trip them through the checkpoint, so sequence numbers and
// epochs keep counting from the committed prefix after a restart and a
// replayed operation carries the same (Epoch, Seq) it did the first
// time — the property the serving layer's deduplication relies on.
// Delta hands out only the counters stamped since the previous Delta,
// which is what one commit records.
//
// A stale entry (Last more than the idle cut-off behind the stream
// clock) stamps exactly as an absent one: both start a new epoch. That
// is why Sweep is only a memory bound and may run at any time, and why
// a checkpoint never needs to record a deletion.
type Sessionizer struct {
	idle  time.Duration
	now   func() time.Time
	state map[string]*SessionSeq
	// dirty holds the clients stamped since the last Delta.
	dirty map[string]struct{}
	// epoch is the last assigned session epoch: a monotonic counter
	// persisted in the checkpoint, so a session started after a restart
	// (or after its predecessor's counters were swept) never reuses an
	// epoch the serving layer may still hold open.
	epoch int64
	// stream is the stream clock: the max event timestamp seen.
	stream time.Time
}

// SessionSeq is one client's sessionization state.
type SessionSeq struct {
	// Epoch identifies this session generation (see Sessionizer.epoch).
	Epoch int64 `json:"epoch,omitempty"`
	// Seq is the sequence number of the session's last operation.
	Seq int64 `json:"seq"`
	// Last is the latest timestamp among the session's operations (an
	// out-of-order record never moves it back, so the stream clock is
	// always some live entry's Last and a restore recovers it exactly).
	Last time.Time `json:"last"`
}

// NewSessionizer builds a sessionizer with the given idle cut-off
// (<= 0 means 10 minutes). now supplies the clock used when a record
// carries no timestamp (nil means time.Now).
func NewSessionizer(idle time.Duration, now func() time.Time) *Sessionizer {
	if idle <= 0 {
		idle = session.IdleGap
	}
	if now == nil {
		now = time.Now
	}
	return &Sessionizer{idle: idle, now: now, state: make(map[string]*SessionSeq), dirty: make(map[string]struct{})}
}

// Event stamps one operation into a serve event addressed to tenant.
// The log's connection id is the event's ClientID, and the counters are
// keyed by the event's Client — the key the serving layer assembles by.
func (z *Sessionizer) Event(tenant string, op session.Operation) serve.Event {
	ev := serve.Event{Tenant: tenant, ClientID: op.SessionID, User: op.User, Addr: op.Addr, SQL: op.SQL, Time: op.Time}
	ts := op.Time
	if ts.IsZero() {
		ts = z.now()
	}
	if ts.After(z.stream) {
		z.stream = ts
	}
	client := ev.Client()
	st := z.state[client]
	if st == nil || ts.Sub(st.Last) > z.idle || z.stale(st) {
		z.epoch++
		st = &SessionSeq{Epoch: z.epoch}
		z.state[client] = st
	}
	st.Seq++
	if ts.After(st.Last) {
		st.Last = ts
	}
	z.dirty[client] = struct{}{}
	ev.Seq, ev.Epoch = st.Seq, st.Epoch
	return ev
}

// Sweep drops state for clients idle past the cut-off (memory bound);
// their next operation starts a new session — under a fresh epoch, as
// it would have anyway. Idleness is judged against the stream clock,
// never the wall clock, so replaying a backlog of old records cannot
// sweep counters that are live in stream time.
func (z *Sessionizer) Sweep() {
	for client, st := range z.state {
		if z.stale(st) {
			delete(z.state, client)
			delete(z.dirty, client)
		}
	}
}

// stale reports whether st is idle past the cut-off in stream time: the
// entries Sweep drops and Event treats as absent.
func (z *Sessionizer) stale(st *SessionSeq) bool {
	return st.Last.Before(z.stream.Add(-z.idle))
}

// Export snapshots the sequence counters for the checkpoint.
func (z *Sessionizer) Export() map[string]SessionSeq {
	out := make(map[string]SessionSeq, len(z.state))
	for client, st := range z.state {
		out[client] = *st
	}
	return out
}

// Delta returns the counters of the clients stamped since the previous
// Delta and starts a new dirty set: one commit's change to Export.
func (z *Sessionizer) Delta() map[string]SessionSeq {
	out := make(map[string]SessionSeq, len(z.dirty))
	for client := range z.dirty {
		out[client] = *z.state[client]
	}
	clear(z.dirty)
	return out
}

// Restore installs checkpointed sequence counters (before streaming
// starts) and advances the stream clock and epoch counter past them.
func (z *Sessionizer) Restore(m map[string]SessionSeq) {
	for client, st := range m {
		cp := st
		z.state[client] = &cp
		if cp.Last.After(z.stream) {
			z.stream = cp.Last
		}
		if cp.Epoch > z.epoch {
			z.epoch = cp.Epoch
		}
	}
}

// Epoch returns the last assigned session epoch (checkpointed so a
// restart never reissues one).
func (z *Sessionizer) Epoch() int64 { return z.epoch }

// SetEpoch raises the epoch counter to at least n. It must cover every
// epoch ever issued — Restore alone is not enough, because the
// highest-epoch session may already have been swept from the counters.
func (z *Sessionizer) SetEpoch(n int64) {
	if n > z.epoch {
		z.epoch = n
	}
}
