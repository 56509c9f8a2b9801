package serve

import (
	"sort"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// Alert statuses.
const (
	StatusOpen       = "open"
	StatusFalseAlarm = "false_alarm"
	StatusConfirmed  = "confirmed"
)

// Alert is one flagged session as the serving layer reports it: created
// the moment the first mid-session flag fires (early warning, §5.3) and
// finalized when the session closes and full-session detection confirms
// the positions.
type Alert struct {
	ID        int64  `json:"id"`
	SessionID string `json:"session_id"`
	Client    string `json:"client"`
	User      string `json:"user"`
	Positions []int  `json:"positions"`
	// Statements holds the flagged statement texts aligned with
	// Positions.
	Statements []string `json:"statements"`
	Status     string   `json:"status"`
	// Final reports whether the session has closed; only final alerts
	// can be resolved.
	Final     bool      `json:"final"`
	CreatedAt time.Time `json:"created_at"`
	UpdatedAt time.Time `json:"updated_at"`

	// sess is the closed session a false-alarm verdict returns to the
	// verified pool; nil when close-out detection judged the session
	// normal (it joined the pool then).
	sess *session.Session
}

// alertStore indexes alerts by id and by open session. It also
// remembers recently finalized sessions so late scoring results for a
// closed session do not spawn orphan alerts.
//
// Resolved alerts are retention-bounded: once an expert verdict lands,
// the alert joins a FIFO eviction queue and is dropped when the queue
// exceeds maxResolved entries or the alert outlives resolvedTTL —
// open (unresolved) alerts are never evicted, so nothing awaiting
// review can disappear.
type alertStore struct {
	mu        sync.Mutex
	nextID    int64
	byID      map[int64]*Alert
	bySession map[string]*Alert
	finalized *ringSet
	now       func() time.Time

	// maxResolved bounds retained resolved alerts (negative = unbounded);
	// resolvedTTL ages them out (0 disables).
	maxResolved int
	resolvedTTL time.Duration
	// resolvedIDs holds resolved alert ids in resolution order (FIFO
	// eviction); evicted counts lifetime evictions.
	resolvedIDs []int64
	evicted     int64
}

func newAlertStore(now func() time.Time, maxResolved int, resolvedTTL time.Duration) *alertStore {
	return &alertStore{
		byID:        make(map[int64]*Alert),
		bySession:   make(map[string]*Alert),
		finalized:   newRingSet(4096),
		now:         now,
		maxResolved: maxResolved,
		resolvedTTL: resolvedTTL,
	}
}

// flag records one mid-session anomalous operation, creating the
// session's alert on first flag. It reports whether the flag was
// absorbed (false for late results on already-finalized sessions).
func (st *alertStore) flag(r Result, user string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	a := st.bySession[r.SessionID]
	if a == nil {
		if st.finalized.has(r.SessionID) {
			return false
		}
		st.nextID++
		a = &Alert{
			ID:        st.nextID,
			SessionID: r.SessionID,
			Client:    r.Client,
			User:      user,
			Status:    StatusOpen,
			CreatedAt: st.now(),
		}
		st.byID[a.ID] = a
		st.bySession[r.SessionID] = a
	}
	a.addPosition(r.Pos, r.SQL)
	a.UpdatedAt = st.now()
	return true
}

// finalize marks the session closed. positions is the close-out
// detection verdict (empty = session-level normal); when it flagged
// positions the alert absorbs them, creating the alert if mid-session
// scoring never fired (e.g. the flags raced the close-out).
func (st *alertStore) finalize(sess *session.Session, client string, positions []int) *Alert {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finalized.add(sess.ID)
	a := st.bySession[sess.ID]
	if a == nil && len(positions) == 0 {
		return nil
	}
	if a == nil {
		st.nextID++
		a = &Alert{
			ID:        st.nextID,
			SessionID: sess.ID,
			Client:    client,
			User:      sess.User,
			Status:    StatusOpen,
			CreatedAt: st.now(),
		}
		st.byID[a.ID] = a
	}
	delete(st.bySession, sess.ID)
	a.Final = true
	if len(positions) > 0 {
		a.sess = sess
	}
	for _, pos := range positions {
		a.addPosition(pos, sess.Ops[pos].SQL)
	}
	a.UpdatedAt = st.now()
	return a
}

// resolve applies an expert verdict to a final alert and returns the
// closed session it judged (nil when close-out detection had judged the
// session normal).
func (st *alertStore) resolve(id int64, status string) (*session.Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a := st.byID[id]
	if a == nil {
		return nil, ErrNoAlert
	}
	if !a.Final {
		return nil, ErrSessionOpen
	}
	if a.Status != StatusOpen {
		return nil, ErrNoAlert
	}
	a.Status = status
	a.UpdatedAt = st.now()
	sess := a.sess
	a.sess = nil
	st.resolvedIDs = append(st.resolvedIDs, a.ID)
	st.evictLocked()
	return sess, nil
}

// evictLocked enforces the resolved-alert retention bound: FIFO past
// maxResolved, then anything older than resolvedTTL (UpdatedAt is the
// resolution time, so the queue is in expiry order).
func (st *alertStore) evictLocked() {
	for st.maxResolved >= 0 && len(st.resolvedIDs) > st.maxResolved {
		st.evictFrontLocked()
	}
	if st.resolvedTTL <= 0 {
		return
	}
	cutoff := st.now().Add(-st.resolvedTTL)
	for len(st.resolvedIDs) > 0 {
		a := st.byID[st.resolvedIDs[0]]
		if a == nil || a.UpdatedAt.After(cutoff) {
			break
		}
		st.evictFrontLocked()
	}
}

func (st *alertStore) evictFrontLocked() {
	id := st.resolvedIDs[0]
	st.resolvedIDs = st.resolvedIDs[1:]
	if _, ok := st.byID[id]; ok {
		delete(st.byID, id)
		st.evicted++
	}
}

// evictExpired applies the TTL bound outside a resolve call (the idle
// sweeper drives it so resolved alerts age out even when no new
// verdicts arrive).
func (st *alertStore) evictExpired() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked()
}

// raisedCount is the lifetime number of alerts ever created.
func (st *alertStore) raisedCount() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextID
}

// evictedCount is the lifetime number of retention evictions.
func (st *alertStore) evictedCount() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evicted
}

// list returns alerts sorted by id; status "" means all.
func (st *alertStore) list(status string) []Alert {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Alert, 0, len(st.byID))
	for _, a := range st.byID {
		if status != "" && a.Status != status {
			continue
		}
		c := *a
		c.Positions = append([]int(nil), a.Positions...)
		c.Statements = append([]string(nil), a.Statements...)
		c.sess = nil
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (st *alertStore) openCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, a := range st.byID {
		if a.Status == StatusOpen {
			n++
		}
	}
	return n
}

// addPosition inserts pos keeping Positions sorted and deduplicated.
func (a *Alert) addPosition(pos int, sql string) {
	i := sort.SearchInts(a.Positions, pos)
	if i < len(a.Positions) && a.Positions[i] == pos {
		if a.Statements[i] == "" {
			a.Statements[i] = sql
		}
		return
	}
	a.Positions = append(a.Positions, 0)
	copy(a.Positions[i+1:], a.Positions[i:])
	a.Positions[i] = pos
	a.Statements = append(a.Statements, "")
	copy(a.Statements[i+1:], a.Statements[i:])
	a.Statements[i] = sql
}

// ringSet is a fixed-capacity set with FIFO eviction — enough memory to
// absorb late scoring results without growing without bound.
type ringSet struct {
	set  map[string]struct{}
	ring []string
	next int
}

func newRingSet(capacity int) *ringSet {
	return &ringSet{set: make(map[string]struct{}, capacity), ring: make([]string, 0, capacity)}
}

func (r *ringSet) add(k string) {
	if _, ok := r.set[k]; ok {
		return
	}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, k)
	} else {
		delete(r.set, r.ring[r.next])
		r.ring[r.next] = k
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.set[k] = struct{}{}
}

func (r *ringSet) has(k string) bool {
	_, ok := r.set[k]
	return ok
}
