package session

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/sqlnorm"
)

func ts(sec int) time.Time {
	return time.Date(2022, 6, 12, 10, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

func TestSessionizeByID(t *testing.T) {
	ops := []Operation{
		{Time: ts(0), User: "u1", Addr: "a", SessionID: "s1", SQL: "SELECT 1"},
		{Time: ts(5), User: "u1", Addr: "a", SessionID: "s2", SQL: "SELECT 2"},
		{Time: ts(3), User: "u1", Addr: "a", SessionID: "s1", SQL: "SELECT 3"},
	}
	sessions := Sessionize(ops, time.Minute)
	if len(sessions) != 2 {
		t.Fatalf("got %d sessions, want 2", len(sessions))
	}
	if sessions[0].ID != "s1" || len(sessions[0].Ops) != 2 {
		t.Fatalf("s1 = %+v", sessions[0])
	}
	if !sessions[0].Ops[0].Time.Before(sessions[0].Ops[1].Time) {
		t.Fatal("ops must be chronological within a session")
	}
}

func TestSessionizeIdleGapSplitting(t *testing.T) {
	ops := []Operation{
		{Time: ts(0), User: "u1", Addr: "a", SQL: "SELECT 1"},
		{Time: ts(10), User: "u1", Addr: "a", SQL: "SELECT 2"},
		{Time: ts(200), User: "u1", Addr: "a", SQL: "SELECT 3"}, // > gap
		{Time: ts(5), User: "u2", Addr: "b", SQL: "SELECT 4"},   // other flow
	}
	sessions := Sessionize(ops, time.Minute)
	if len(sessions) != 3 {
		t.Fatalf("got %d sessions, want 3", len(sessions))
	}
	counts := map[string]int{}
	for _, s := range sessions {
		counts[s.User] += len(s.Ops)
	}
	if counts["u1"] != 3 || counts["u2"] != 1 {
		t.Fatalf("op counts %v", counts)
	}
}

func TestSessionizeOrdersByStart(t *testing.T) {
	ops := []Operation{
		{Time: ts(100), User: "late", Addr: "a", SessionID: "b", SQL: "SELECT 1"},
		{Time: ts(1), User: "early", Addr: "a", SessionID: "a", SQL: "SELECT 1"},
	}
	sessions := Sessionize(ops, time.Minute)
	if sessions[0].User != "early" {
		t.Fatal("sessions must be ordered by start time")
	}
}

func TestTokenizeLearnAndDetect(t *testing.T) {
	v := sqlnorm.NewVocabulary()
	train := []*Session{{Ops: []Operation{
		{SQL: "SELECT * FROM a WHERE x=1"},
		{SQL: "SELECT * FROM a WHERE x=2"},
		{SQL: "DELETE FROM a WHERE x=3"},
	}}}
	TokenizeLearn(v, train)
	keys := train[0].Keys()
	if keys[0] != keys[1] || keys[0] == keys[2] {
		t.Fatalf("keys = %v", keys)
	}
	// Detection looks statements up in the now-fixed vocabulary.
	if got := v.Key("SELECT * FROM a WHERE x=99"); got != keys[0] {
		t.Fatalf("known template key = %d, want %d", got, keys[0])
	}
	if got := v.Key("DROP TABLE a"); got != sqlnorm.PadKey {
		t.Fatalf("unknown template key = %d, want PadKey", got)
	}
}

func TestLogRoundtrip(t *testing.T) {
	ops := []Operation{
		{Time: ts(0), User: "u1", Addr: "10.0.0.1", SessionID: "s1", SQL: "SELECT * FROM t WHERE a='x'"},
		{Time: ts(1), User: "u2", Addr: "10.0.0.2", SQL: "INSERT INTO t VALUES (1)"},
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].SQL != ops[0].SQL || !got[0].Time.Equal(ops[0].Time) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if got[1].SessionID != "" {
		t.Fatal("empty session id must stay empty")
	}
}

func TestReadLogSkipsBlankAndRejectsGarbage(t *testing.T) {
	ops, err := ReadLog(strings.NewReader("\n{\"user\":\"u\",\"addr\":\"a\",\"sql\":\"SELECT 1\",\"ts\":\"2022-01-01T00:00:00Z\"}\n\n"))
	if err != nil || len(ops) != 1 {
		t.Fatalf("ops=%v err=%v", ops, err)
	}
	if _, err := ReadLog(strings.NewReader("{bad json")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := &Session{ID: "x", Ops: []Operation{{SQL: "SELECT 1"}}}
	c := s.Clone()
	c.Ops[0].SQL = "changed"
	if s.Ops[0].SQL != "SELECT 1" {
		t.Fatal("Clone must not alias Ops")
	}
}

func TestFlatten(t *testing.T) {
	ss := []*Session{
		{Ops: []Operation{{SQL: "a"}, {SQL: "b"}}},
		{Ops: []Operation{{SQL: "c"}}},
	}
	ops := Flatten(ss)
	if len(ops) != 3 || ops[2].SQL != "c" {
		t.Fatalf("Flatten = %+v", ops)
	}
}

func TestStartEmptySession(t *testing.T) {
	var s Session
	if !s.Start().IsZero() {
		t.Fatal("empty session start must be zero time")
	}
}
