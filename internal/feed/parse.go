package feed

import (
	"encoding/csv"
	"fmt"
	"strings"
	"time"

	"github.com/ucad/ucad/internal/jsonwire"
	"github.com/ucad/ucad/internal/session"
)

// opFields are session.Operation's JSON member names, in field order.
var opFields = jsonwire.NewFields("ts", "user", "addr", "session_id", "sql")

// ParseJSONLine decodes one session.Operation wire-format record (the
// format session.ReadLog reads and session.WriteLog writes). It accepts
// exactly the lines json.Unmarshal accepts into a session.Operation, and
// yields the same record (FuzzParseJSONLine holds it to that); the
// strings are copies, never slices of line.
func ParseJSONLine(line []byte) (session.Operation, error) {
	var op session.Operation
	var d jsonwire.Decoder
	d.Reset(line)
	if d.Object() {
		for n := 0; ; n++ {
			key, ok := d.Member(n)
			if !ok {
				break
			}
			switch opFields.Index(key) {
			case 0:
				d.Time(&op.Time)
			case 1:
				d.String(&op.User)
			case 2:
				d.String(&op.Addr)
			case 3:
				d.String(&op.SessionID)
			case 4:
				d.String(&op.SQL)
			default:
				d.Skip()
			}
		}
	}
	err := d.Err()
	if err == nil && !d.End() {
		err = jsonwire.ErrSyntax
	}
	if err != nil {
		return session.Operation{}, fmt.Errorf("feed: bad jsonl record: %w", err)
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
