// Package session defines the data model UCAD operates on: individual
// data-access operations (SQL statements with execution context) grouped
// into user sessions, plus audit-log (de)serialization and
// sessionization.
package session

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/ucad/ucad/internal/sqlnorm"
)

// Operation is one data-access operation as recorded in the database
// audit log (§2's trusted log).
type Operation struct {
	// Time is the statement execution timestamp.
	Time time.Time `json:"ts"`
	// User is the authenticated database account.
	User string `json:"user"`
	// Addr is the client network address.
	Addr string `json:"addr"`
	// SessionID groups operations of one database access; may be empty
	// for logs that only carry user/addr, in which case sessionization
	// falls back to idle-gap splitting.
	SessionID string `json:"session_id,omitempty"`
	// SQL is the raw statement text.
	SQL string `json:"sql"`
	// Key is the statement key assigned by the vocabulary; zero until
	// tokenized.
	Key int `json:"-"`
}

// Session is a sequence of operations executed by one user during one
// database access (the paper's detection granularity for reporting).
type Session struct {
	ID   string
	User string
	Addr string
	Ops  []Operation
}

// Keys returns the statement keys TokenizeLearn gave the session's
// operations.
func (s *Session) Keys() []int {
	keys := make([]int, len(s.Ops))
	for i, op := range s.Ops {
		keys[i] = op.Key
	}
	return keys
}

// KeysIn returns each session's statement keys in v, touching neither:
// a template v never learned keys to sqlnorm.UnknownKey (detection).
func KeysIn(v *sqlnorm.Vocabulary, sessions ...*Session) [][]int {
	out := make([][]int, len(sessions))
	for i, s := range sessions {
		out[i] = make([]int, len(s.Ops))
		for j := range s.Ops {
			out[i][j] = v.Key(s.Ops[j].SQL)
		}
	}
	return out
}

// Start returns the timestamp of the first operation (zero if empty).
func (s *Session) Start() time.Time {
	if len(s.Ops) == 0 {
		return time.Time{}
	}
	return s.Ops[0].Time
}

// Clone returns a deep copy of the session.
func (s *Session) Clone() *Session {
	c := &Session{ID: s.ID, User: s.User, Addr: s.Addr, Ops: append([]Operation(nil), s.Ops...)}
	return c
}

// TokenizeLearn assigns statement keys to every operation, growing the
// vocabulary for unseen templates (training stage).
func TokenizeLearn(v *sqlnorm.Vocabulary, sessions []*Session) {
	for _, s := range sessions {
		for i := range s.Ops {
			s.Ops[i].Key = v.Learn(s.Ops[i].SQL)
		}
	}
}

// WriteLog serializes operations as JSON lines, the audit-log format the
// CLI tools exchange.
func WriteLog(w io.Writer, ops []Operation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range ops {
		if err := enc.Encode(&ops[i]); err != nil {
			return fmt.Errorf("session: encode op %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadLog parses a JSON-lines audit log.
func ReadLog(r io.Reader) ([]Operation, error) {
	var ops []Operation
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var op Operation
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			return nil, fmt.Errorf("session: log line %d: %w", line, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("session: read log: %w", err)
	}
	return ops, nil
}

// IdleGap is the idle cut-off that splits a client's operations into
// sessions where the log records no session id: the gap ucad train and
// ucad detect sessionize at, and the default of the feed's sessionizer
// and the server's idle close-out.
const IdleGap = 10 * time.Minute

// Sessionize groups operations into sessions. Operations carrying a
// SessionID are grouped by it; the rest are grouped per (user, addr) and
// split whenever consecutive operations are more than idleGap apart.
// Sessions are returned ordered by start time; operations within a
// session are ordered chronologically.
func Sessionize(ops []Operation, idleGap time.Duration) []*Session {
	sorted := append([]Operation(nil), ops...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })

	byID := make(map[string]*Session)
	type flowKey struct{ user, addr string }
	open := make(map[flowKey]*Session)
	var out []*Session
	seq := 0

	newSession := func(op Operation, id string) *Session {
		seq++
		if id == "" {
			id = fmt.Sprintf("%s@%s#%d", op.User, op.Addr, seq)
		}
		s := &Session{ID: id, User: op.User, Addr: op.Addr}
		out = append(out, s)
		return s
	}

	for _, op := range sorted {
		if op.SessionID != "" {
			s := byID[op.SessionID]
			if s == nil {
				s = newSession(op, op.SessionID)
				byID[op.SessionID] = s
			}
			s.Ops = append(s.Ops, op)
			continue
		}
		k := flowKey{op.User, op.Addr}
		s := open[k]
		if s == nil || (len(s.Ops) > 0 && op.Time.Sub(s.Ops[len(s.Ops)-1].Time) > idleGap) {
			s = newSession(op, "")
			open[k] = s
		}
		s.Ops = append(s.Ops, op)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start().Before(out[j].Start()) })
	return out
}

// Flatten concatenates the operations of the sessions in order, e.g. to
// write a combined audit log.
func Flatten(sessions []*Session) []Operation {
	var ops []Operation
	for _, s := range sessions {
		ops = append(ops, s.Ops...)
	}
	return ops
}
