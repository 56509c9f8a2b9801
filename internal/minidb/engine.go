package minidb

import (
	"fmt"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// Table is an in-memory relation.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]Value
}

func (t *Table) colIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("minidb: table %s has no column %q", t.Name, name)
}

// Result is the outcome of executing one statement.
type Result struct {
	// Columns and Rows are set for SELECT.
	Columns []string
	Rows    [][]Value
	// Affected is the number of rows inserted/updated/deleted.
	Affected int
}

// AuditSink receives every executed operation as it is recorded — the
// durable half of the audit trail (see AuditWriter). Append is called
// under the database lock, so implementations must not call back into
// the DB.
type AuditSink interface {
	Append(session.Operation) error
}

// DB is an in-memory database emitting an audit log of every executed
// statement. It is safe for concurrent use.
type DB struct {
	mu     sync.Mutex
	tables map[string]*Table
	audit  []session.Operation
	sink   AuditSink
	// Now supplies timestamps for the audit log; defaults to time.Now.
	// Tests and workload generators inject deterministic clocks.
	Now func() time.Time
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table), Now: time.Now}
}

// Conn is one client connection; its identity attributes are stamped on
// every audit record it produces.
type Conn struct {
	db        *DB
	user      string
	addr      string
	sessionID string
}

// Connect opens a connection for an authenticated user. sessionID
// groups the connection's statements in the audit log.
func (db *DB) Connect(user, addr, sessionID string) *Conn {
	return &Conn{db: db, user: user, addr: addr, sessionID: sessionID}
}

// Exec parses and executes one SQL statement, recording it in the audit
// log (successful statements only — the paper's log contains executed
// operations).
func (c *Conn) Exec(sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	c.db.mu.Lock()
	defer c.db.mu.Unlock()
	res, err := c.db.exec(st)
	if err != nil {
		return nil, err
	}
	op := session.Operation{
		Time:      c.db.Now(),
		User:      c.user,
		Addr:      c.addr,
		SessionID: c.sessionID,
		SQL:       sql,
	}
	c.db.audit = append(c.db.audit, op)
	if c.db.sink != nil {
		// The statement executed either way; a sink failure surfaces as
		// an error alongside the result so callers know the durable
		// trail is incomplete.
		if serr := c.db.sink.Append(op); serr != nil {
			return res, serr
		}
	}
	return res, nil
}

// AuditLog returns a copy of all recorded operations in execution order.
func (db *DB) AuditLog() []session.Operation {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]session.Operation(nil), db.audit...)
}

// SetAuditSink attaches (or, with nil, detaches) a durable audit sink;
// every subsequently executed statement is appended to it in execution
// order, in addition to the in-memory log.
func (db *DB) SetAuditSink(s AuditSink) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sink = s
}

// ResetAudit clears the audit log (e.g. after a training snapshot).
func (db *DB) ResetAudit() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.audit = nil
}

func (db *DB) exec(st *Statement) (*Result, error) {
	switch st.Kind {
	case "CREATE":
		if _, exists := db.tables[st.Table]; exists {
			return nil, fmt.Errorf("minidb: table %s already exists", st.Table)
		}
		db.tables[st.Table] = &Table{Name: st.Table, Columns: st.Columns}
		return &Result{}, nil
	case "INSERT":
		return db.execInsert(st)
	case "SELECT":
		return db.execSelect(st)
	case "UPDATE":
		return db.execUpdate(st)
	case "DELETE":
		return db.execDelete(st)
	default:
		return nil, fmt.Errorf("minidb: unknown statement kind %q", st.Kind)
	}
}

func (db *DB) table(name string) (*Table, error) {
	t := db.tables[name]
	if t == nil {
		return nil, fmt.Errorf("minidb: no such table %q", name)
	}
	return t, nil
}

func (db *DB) execInsert(st *Statement) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	cols := st.Columns
	if len(cols) == 0 {
		cols = t.Columns
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		if idx[i], err = t.colIndex(c); err != nil {
			return nil, err
		}
	}
	for _, vals := range st.Rows {
		if len(vals) != len(cols) {
			return nil, fmt.Errorf("minidb: %d values for %d columns", len(vals), len(cols))
		}
		row := make([]Value, len(t.Columns))
		for i, v := range vals {
			row[idx[i]] = v
		}
		t.Rows = append(t.Rows, row)
	}
	return &Result{Affected: len(st.Rows)}, nil
}

func (db *DB) execSelect(st *Statement) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	match, err := compileWhere(t, st.Where)
	if err != nil {
		return nil, err
	}
	proj := st.Columns
	if len(proj) == 1 && proj[0] == "*" {
		proj = t.Columns
	}
	idx := make([]int, len(proj))
	for i, c := range proj {
		if idx[i], err = t.colIndex(c); err != nil {
			return nil, err
		}
	}
	res := &Result{Columns: proj}
	for _, row := range t.Rows {
		if !match(row) {
			continue
		}
		out := make([]Value, len(idx))
		for i, j := range idx {
			out[i] = row[j]
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func (db *DB) execUpdate(st *Statement) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	match, err := compileWhere(t, st.Where)
	if err != nil {
		return nil, err
	}
	type setIdx struct {
		col int
		v   Value
	}
	sets := make([]setIdx, len(st.Sets))
	for i, s := range st.Sets {
		j, err := t.colIndex(s.Column)
		if err != nil {
			return nil, err
		}
		sets[i] = setIdx{j, s.Value}
	}
	n := 0
	for _, row := range t.Rows {
		if !match(row) {
			continue
		}
		for _, s := range sets {
			row[s.col] = s.v
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func (db *DB) execDelete(st *Statement) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	match, err := compileWhere(t, st.Where)
	if err != nil {
		return nil, err
	}
	kept := t.Rows[:0]
	n := 0
	for _, row := range t.Rows {
		if match(row) {
			n++
			continue
		}
		kept = append(kept, row)
	}
	t.Rows = kept
	return &Result{Affected: n}, nil
}

// compileWhere builds a predicate over table rows from the conjunctive
// conditions.
func compileWhere(t *Table, conds []Condition) (func([]Value) bool, error) {
	type compiled struct {
		col  int
		cond Condition
	}
	cs := make([]compiled, len(conds))
	for i, c := range conds {
		j, err := t.colIndex(c.Column)
		if err != nil {
			return nil, err
		}
		cs[i] = compiled{j, c}
	}
	return func(row []Value) bool {
		for _, c := range cs {
			if !evalCond(row[c.col], c.cond) {
				return false
			}
		}
		return true
	}, nil
}

func evalCond(v Value, c Condition) bool {
	switch c.Op {
	case OpIn:
		for _, a := range c.Args {
			if valueEq(v, a) {
				return true
			}
		}
		return false
	case OpEq:
		return valueEq(v, c.Args[0])
	case OpNe:
		return !valueEq(v, c.Args[0])
	default:
		cmp, ok := valueCmp(v, c.Args[0])
		if !ok {
			return false
		}
		switch c.Op {
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		case OpGe:
			return cmp >= 0
		}
		return false
	}
}

func valueEq(a, b Value) bool {
	cmp, ok := valueCmp(a, b)
	return ok && cmp == 0
}

// valueCmp orders two values of the same kind; mixed kinds and NULLs are
// incomparable.
func valueCmp(a, b Value) (int, bool) {
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return 0, false
		}
		switch {
		case av < bv:
			return -1, true
		case av > bv:
			return 1, true
		}
		return 0, true
	case string:
		bv, ok := b.(string)
		if !ok {
			return 0, false
		}
		switch {
		case av < bv:
			return -1, true
		case av > bv:
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}
