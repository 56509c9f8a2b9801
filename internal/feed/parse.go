package feed

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// ParseJSONLine decodes one session.Operation wire-format record (the
// format session.ReadLog reads and session.WriteLog writes).
func ParseJSONLine(line []byte) (session.Operation, error) {
	var op session.Operation
	if err := json.Unmarshal(line, &op); err != nil {
		return op, fmt.Errorf("feed: bad jsonl record: %w", err)
	}
	if op.SQL == "" {
		return op, fmt.Errorf("feed: jsonl record missing sql")
	}
	return op, nil
}

// ParseCSVLine decodes one CSV audit record with the column layout
//
//	ts,user,addr,session_id,sql
//
// ts is RFC 3339 (empty means unstamped); standard CSV quoting applies,
// so statements containing commas or quotes round-trip.
func ParseCSVLine(line []byte) (session.Operation, error) {
	var op session.Operation
	r := csv.NewReader(strings.NewReader(string(line)))
	r.FieldsPerRecord = 5
	fields, err := r.Read()
	if err != nil {
		return op, fmt.Errorf("feed: bad csv record: %w", err)
	}
	if fields[0] != "" {
		ts, err := time.Parse(time.RFC3339Nano, fields[0])
		if err != nil {
			return op, fmt.Errorf("feed: bad csv timestamp: %w", err)
		}
		op.Time = ts
	}
	op.User, op.Addr, op.SessionID, op.SQL = fields[1], fields[2], fields[3], fields[4]
	if op.SQL == "" {
		return op, fmt.Errorf("feed: csv record missing sql")
	}
	return op, nil
}
