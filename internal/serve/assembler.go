package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// Assembler turns a stream of per-client events into sessions: each
// client has at most one open session, events append to it, and a
// session closes when the client has been idle past the timeout (the
// paper's idle-gap sessionization of §6.1 running online instead of as
// a batch sort). It is safe for concurrent use.
type Assembler struct {
	mu   sync.Mutex
	open map[string]*openSession
	idle time.Duration
	now  func() time.Time
	seq  int

	opened int64
	closed int64
}

type openSession struct {
	sess     *session.Session
	keys     []int
	lastSeen time.Time
	// epoch/lastSeq are the dedupe high-water mark for sequenced senders
	// (Event.Epoch > 0): the newest sender session generation absorbed
	// and its last sequence number. Zero epoch means only unsequenced
	// events have been appended.
	epoch   int64
	lastSeq int64
}

// NewAssembler builds an assembler closing sessions after idle of
// inactivity. now supplies the wall clock (nil means time.Now); tests
// inject a fake clock to drive close-out deterministically.
func NewAssembler(idle time.Duration, now func() time.Time) *Assembler {
	if now == nil {
		now = time.Now
	}
	return &Assembler{open: make(map[string]*openSession), idle: idle, now: now}
}

// Appended describes the assembly state right after one event was
// absorbed: which session it joined, at which position, and a snapshot
// of the statement-key window ending at that operation (safe to hand to
// a concurrent scorer — it does not alias the live session).
type Appended struct {
	SessionID string
	// Pos is the 0-based index of the operation within its session.
	Pos int
	// Keys holds the up-to-window most recent statement keys, the last
	// one being the appended operation's key.
	Keys []int
	// Time is the operation's stored timestamp (the event's, or the
	// assembler clock when the event carried none) — what the WAL record
	// persists so recovery rebuilds the operation byte-exactly.
	Time time.Time
	// Dup reports that the event carried a sequence number (Event.Seq)
	// the open session already covers: nothing was appended, and the
	// caller should acknowledge without scoring or logging. SessionID
	// still identifies the session that absorbed the original delivery.
	Dup bool
}

// Append absorbs one event whose statement was already tokenized to
// key. window bounds the length of the returned key snapshot (0 means
// the whole session).
//
// A sequenced event (positive Seq and Epoch) is deduplicated against
// the client's open session, fenced on the epoch: an older epoch, or
// the same epoch at or below the session's last absorbed Seq, is a
// redelivery; a newer epoch is fresh traffic (the sender started a new
// session, so its Seq restarting at 1 must not look like a replay).
// A duplicate returns Dup without mutating state. Dedup cannot
// reach across a close-out — once a session leaves the assembler, a
// late redelivery of its statements opens a fresh session — so feeders
// must keep their checkpoint lag well inside the idle timeout.
func (a *Assembler) Append(ev Event, key, window int) Appended {
	now := a.now()
	ts := ev.Time
	if ts.IsZero() {
		ts = now
	}
	client := ev.Client()

	a.mu.Lock()
	defer a.mu.Unlock()
	os := a.open[client]
	if os != nil && ev.Seq > 0 && ev.Epoch > 0 && os.isDupLocked(ev) {
		os.lastSeen = now // the client is clearly alive; keep the session open
		return Appended{SessionID: os.sess.ID, Pos: int(ev.Seq) - 1, Dup: true}
	}
	if os == nil {
		a.seq++
		a.opened++
		os = &openSession{sess: &session.Session{
			ID:   fmt.Sprintf("%s#%d", client, a.seq),
			User: ev.User,
			Addr: ev.Addr,
		}}
		a.open[client] = os
	}
	os.sess.Ops = append(os.sess.Ops, session.Operation{
		Time: ts, User: ev.User, Addr: ev.Addr, SessionID: os.sess.ID, SQL: ev.SQL, Key: key,
	})
	os.keys = append(os.keys, key)
	os.lastSeen = now
	if ev.Epoch > 0 {
		os.epoch, os.lastSeq = ev.Epoch, ev.Seq
	}

	lo := 0
	if window > 0 && len(os.keys) > window {
		lo = len(os.keys) - window
	}
	snap := append([]int(nil), os.keys[lo:]...)
	return Appended{SessionID: os.sess.ID, Pos: len(os.keys) - 1, Keys: snap, Time: ts}
}

// isDupLocked reports whether a sequenced event (ev.Seq, ev.Epoch > 0)
// is a redelivery the open session already absorbed. Sender epochs are
// monotonic and delivery is in order, so anything from an older epoch —
// or from the current one at or below its last Seq — was already seen.
// A session with no epoch mark (only unsequenced events so far) is
// incomparable and the event is treated as new: a rare duplicate beats
// silently dropping live data.
func (os *openSession) isDupLocked(ev Event) bool {
	return os.epoch > 0 &&
		(ev.Epoch < os.epoch || (ev.Epoch == os.epoch && ev.Seq <= os.lastSeq))
}

// Rollback removes the operation at position pos from the client's open
// session, provided it is still the most recent one — the undo path
// when the scoring queue rejects an event and the caller bounces it
// back to the client for retry. epoch/seq are the undone event's dedupe
// coordinates (zero for an unsequenced one): the mark that operation set
// is undone with it, so the sender's retry is fresh, not a duplicate. It
// reports whether the operation was actually removed (a concurrent
// append for the same client after pos prevents the rollback; the event
// then simply stays unscored).
func (a *Assembler) Rollback(client string, pos int, epoch, seq int64) bool {
	return a.rollback(client, "", pos, epoch, seq)
}

// rollback is Rollback, additionally guarded on the session id when one
// is given (the replay form: the record names the session it undid).
func (a *Assembler) rollback(client, sessionID string, pos int, epoch, seq int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	os := a.open[client]
	if os == nil || sessionID != "" && os.sess.ID != sessionID || len(os.keys) != pos+1 {
		return false
	}
	os.sess.Ops = os.sess.Ops[:pos]
	os.keys = os.keys[:pos]
	if pos == 0 {
		delete(a.open, client)
		a.opened--
	}
	// Sequence numbers are contiguous within an epoch, so the mark before
	// this operation was seq-1; an epoch's first operation leaves
	// (epoch, 0): older epochs stay duplicates, seq 1 is fresh again.
	if epoch > 0 && os.epoch == epoch && os.lastSeq == seq {
		os.lastSeq = seq - 1
	}
	return true
}

// Closed is a closed-out session together with the client key that
// assembled it.
type Closed struct {
	Client  string
	Session *session.Session
}

// CloseIdle closes and returns every session idle past the timeout.
func (a *Assembler) CloseIdle() []Closed {
	cutoff := a.now().Add(-a.idle)
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Closed
	for client, os := range a.open {
		if !os.lastSeen.After(cutoff) {
			delete(a.open, client)
			a.closed++
			out = append(out, Closed{Client: client, Session: os.sess})
		}
	}
	return out
}

// CloseAll closes and returns every open session (shutdown flush).
func (a *Assembler) CloseAll() []Closed {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Closed
	for client, os := range a.open {
		delete(a.open, client)
		a.closed++
		out = append(out, Closed{Client: client, Session: os.sess})
	}
	return out
}

// Reset drops every open session without closing it — the standby
// replayer's rebuild path after a replication gap (the state is about
// to be re-restored from a newer shipped snapshot). The session-id
// counter is kept: ids must never move backwards across a rebuild.
func (a *Assembler) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.open = make(map[string]*openSession)
}

// OpenCount returns the number of currently open sessions.
func (a *Assembler) OpenCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.open)
}

// Counts reports lifetime opened/closed session counts.
func (a *Assembler) Counts() (opened, closed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.opened, a.closed
}

// SessionState is one open session's full assembly state, the unit the
// durability layer snapshots and restores. Ops are deep copies — safe
// to serialize while the assembler keeps running.
type SessionState struct {
	Client   string              `json:"client"`
	ID       string              `json:"id"`
	User     string              `json:"user,omitempty"`
	Addr     string              `json:"addr,omitempty"`
	LastSeen time.Time           `json:"last_seen"`
	Ops      []session.Operation `json:"ops"`
	// Epoch/LastSeq carry the sender-side dedupe high-water mark (see
	// openSession) so redelivery fencing survives a restart.
	Epoch   int64 `json:"epoch,omitempty"`
	LastSeq int64 `json:"last_seq,omitempty"`
}

// Export snapshots every open session plus the session-id counter,
// sorted by client for deterministic snapshots.
func (a *Assembler) Export() (seq int, out []SessionState) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out = make([]SessionState, 0, len(a.open))
	for client, os := range a.open {
		out = append(out, SessionState{
			Client:   client,
			ID:       os.sess.ID,
			User:     os.sess.User,
			Addr:     os.sess.Addr,
			LastSeen: os.lastSeen,
			Ops:      append([]session.Operation(nil), os.sess.Ops...),
			Epoch:    os.epoch,
			LastSeq:  os.lastSeq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return a.seq, out
}

// Restore installs an open session from a snapshot (recovery path).
// keys must be the tokenized statement keys of st.Ops, index-aligned.
func (a *Assembler) Restore(st SessionState, keys []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.open[st.Client] = &openSession{
		sess: &session.Session{
			ID:   st.ID,
			User: st.User,
			Addr: st.Addr,
			Ops:  append([]session.Operation(nil), st.Ops...),
		},
		keys:     append([]int(nil), keys...),
		lastSeen: st.LastSeen,
		epoch:    st.Epoch,
		lastSeq:  st.LastSeq,
	}
	a.opened++
	a.bumpSeqLocked(st.ID)
}

// SetSeqFloor raises the session-id counter to at least n, so sessions
// opened after a restore never reuse a pre-crash id.
func (a *Assembler) SetSeqFloor(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > a.seq {
		a.seq = n
	}
}

// Rekey re-tokenizes every open session's statements with a new
// vocabulary (hot model swap): the key windows handed to scorers from
// now on must rank against the model that replaced the old one. Ops
// keep their stored SQL text, so the mapping is exact, not approximate.
func (a *Assembler) Rekey(key func(sql string) int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, os := range a.open {
		for i := range os.sess.Ops {
			k := key(os.sess.Ops[i].SQL)
			os.sess.Ops[i].Key = k
			os.keys[i] = k
		}
	}
}

// bumpSeqLocked parses the trailing "#<n>" of a restored session id and
// raises the counter past it.
func (a *Assembler) bumpSeqLocked(id string) {
	if i := strings.LastIndexByte(id, '#'); i >= 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil && n > a.seq {
			a.seq = n
		}
	}
}

// ReplayAppend applies one WAL event record idempotently during
// recovery: the operation lands only if it is the next expected
// position of the identified session (creating the session at position
// 0). Duplicates — records whose effect the snapshot already captured —
// and gaps are dropped silently, so replaying any WAL suffix on top of
// any snapshot converges on the prefix state the log acknowledged.
// epoch/seq, when positive, restore the sender-side dedupe high-water
// mark the original Append recorded. It reports whether the operation
// was applied.
func (a *Assembler) ReplayAppend(client, sessionID string, pos int, op session.Operation, key int, epoch, seq int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	os := a.open[client]
	if os == nil {
		if pos != 0 {
			return false // gap: the session's creation is lost
		}
		os = &openSession{sess: &session.Session{
			ID:   sessionID,
			User: op.User,
			Addr: op.Addr,
		}}
		a.open[client] = os
		a.opened++
		a.bumpSeqLocked(sessionID)
	}
	if os.sess.ID != sessionID || pos != len(os.keys) {
		return false // duplicate (pos < len) or gap — never a phantom
	}
	op.SessionID = sessionID
	op.Key = key
	os.sess.Ops = append(os.sess.Ops, op)
	os.keys = append(os.keys, key)
	if epoch > 0 {
		os.epoch, os.lastSeq = epoch, seq
	}
	if op.Time.After(os.lastSeen) {
		os.lastSeen = op.Time
	}
	return true
}

// ReplayClose removes the identified session during recovery (its
// close-out verdict already happened before the record was logged).
func (a *Assembler) ReplayClose(client, sessionID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	os := a.open[client]
	if os == nil || os.sess.ID != sessionID {
		return false
	}
	delete(a.open, client)
	a.closed++
	return true
}

// ReplayRollback undoes the tail operation of the identified session
// during recovery — the logged image of a backpressure rollback, dedupe
// mark included (epoch/seq are zero on records written before they were
// logged: the mark then stays, as it did live).
func (a *Assembler) ReplayRollback(client, sessionID string, pos int, epoch, seq int64) bool {
	return a.rollback(client, sessionID, pos, epoch, seq)
}
