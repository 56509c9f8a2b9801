package minidb

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustExec(t *testing.T, c *Conn, sql string) *Result {
	t.Helper()
	res, err := c.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func testDB(t *testing.T) (*DB, *Conn) {
	t.Helper()
	db := NewDB()
	base := time.Date(2022, 6, 12, 0, 0, 0, 0, time.UTC)
	i := 0
	db.Now = func() time.Time { i++; return base.Add(time.Duration(i) * time.Second) }
	c := db.Connect("user1", "10.0.0.1", "s1")
	mustExec(t, c, "CREATE TABLE t_rm_mac (mac TEXT, count INT, label TEXT)")
	mustExec(t, c, "INSERT INTO t_rm_mac (mac, count, label) VALUES ('aa', 1, 'x'), ('bb', 2, 'y'), ('cc', 3, 'x')")
	return db, c
}

func TestSelectAll(t *testing.T) {
	_, c := testDB(t)
	res := mustExec(t, c, "SELECT * FROM t_rm_mac")
	if len(res.Rows) != 3 || len(res.Columns) != 3 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
}

func TestSelectProjectionAndWhere(t *testing.T) {
	_, c := testDB(t)
	res := mustExec(t, c, "SELECT mac FROM t_rm_mac WHERE count >= 2 AND label = 'x'")
	if len(res.Rows) != 1 || res.Rows[0][0] != "cc" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectIn(t *testing.T) {
	_, c := testDB(t)
	res := mustExec(t, c, "SELECT mac FROM t_rm_mac WHERE mac IN ('aa', 'cc')")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUpdate(t *testing.T) {
	_, c := testDB(t)
	res := mustExec(t, c, "UPDATE t_rm_mac SET count = 99, label = 'z' WHERE mac = 'bb'")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	check := mustExec(t, c, "SELECT count, label FROM t_rm_mac WHERE mac = 'bb'")
	if check.Rows[0][0] != float64(99) || check.Rows[0][1] != "z" {
		t.Fatalf("row = %v", check.Rows[0])
	}
}

func TestDelete(t *testing.T) {
	_, c := testDB(t)
	res := mustExec(t, c, "DELETE FROM t_rm_mac WHERE count < 3")
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	left := mustExec(t, c, "SELECT * FROM t_rm_mac")
	if len(left.Rows) != 1 || left.Rows[0][0] != "cc" {
		t.Fatalf("rows = %v", left.Rows)
	}
}

func TestInsertWithoutColumnList(t *testing.T) {
	db := NewDB()
	c := db.Connect("u", "a", "s")
	mustExec(t, c, "CREATE TABLE p (a INT, b TEXT)")
	mustExec(t, c, "INSERT INTO p VALUES (1, 'one')")
	res := mustExec(t, c, "SELECT b FROM p WHERE a = 1")
	if len(res.Rows) != 1 || res.Rows[0][0] != "one" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInsertColumnReorder(t *testing.T) {
	db := NewDB()
	c := db.Connect("u", "a", "s")
	mustExec(t, c, "CREATE TABLE p (a INT, b TEXT)")
	mustExec(t, c, "INSERT INTO p (b, a) VALUES ('one', 1)")
	res := mustExec(t, c, "SELECT a FROM p WHERE b = 'one'")
	if res.Rows[0][0] != float64(1) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestErrors(t *testing.T) {
	db := NewDB()
	c := db.Connect("u", "a", "s")
	mustExec(t, c, "CREATE TABLE p (a INT)")
	for _, sql := range []string{
		"",                                   // empty
		"GRANT ALL",                          // unsupported
		"SELECT * FROM missing",              // unknown table
		"SELECT nope FROM p",                 // unknown column
		"INSERT INTO p (a) VALUES (1, 2)",    // arity
		"CREATE TABLE p (a INT)",             // duplicate table
		"INSERT INTO p (a) VALUES (oops)",    // bad literal
		"SELECT * FROM p WHERE a LIKE 'x'",   // unsupported operator
		"DELETE FROM p WHERE",                // dangling where
		"SELECT * FROM p extra tokens here!", // trailing input
	} {
		if _, err := c.Exec(sql); err == nil {
			t.Errorf("Exec(%q): expected error", sql)
		}
	}
}

func TestFailedStatementsNotAudited(t *testing.T) {
	db, c := testDB(t)
	before := len(db.AuditLog())
	if _, err := c.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("expected error")
	}
	if got := len(db.AuditLog()); got != before {
		t.Fatalf("audit grew to %d on failed statement", got)
	}
}

func TestAuditLogRecordsContext(t *testing.T) {
	db, _ := testDB(t)
	log := db.AuditLog()
	if len(log) != 2 {
		t.Fatalf("audit entries = %d, want 2", len(log))
	}
	op := log[1]
	if op.User != "user1" || op.Addr != "10.0.0.1" || op.SessionID != "s1" {
		t.Fatalf("op context = %+v", op)
	}
	if !strings.HasPrefix(op.SQL, "INSERT") {
		t.Fatalf("op sql = %q", op.SQL)
	}
	if !log[0].Time.Before(log[1].Time) {
		t.Fatal("audit timestamps must advance")
	}
	db.ResetAudit()
	if len(db.AuditLog()) != 0 {
		t.Fatal("ResetAudit failed")
	}
}

func TestNullHandling(t *testing.T) {
	db := NewDB()
	c := db.Connect("u", "a", "s")
	mustExec(t, c, "CREATE TABLE p (a INT, b INT)")
	mustExec(t, c, "INSERT INTO p (a, b) VALUES (1, NULL)")
	// NULL is incomparable: no WHERE on b matches.
	res := mustExec(t, c, "SELECT a FROM p WHERE b = 0")
	if len(res.Rows) != 0 {
		t.Fatalf("NULL matched a comparison: %v", res.Rows)
	}
	res = mustExec(t, c, "SELECT a FROM p WHERE b != 0")
	if len(res.Rows) != 1 {
		t.Fatalf("NULL != literal should match: %v", res.Rows)
	}
}

func TestMixedTypeComparisonNeverMatches(t *testing.T) {
	db := NewDB()
	c := db.Connect("u", "a", "s")
	mustExec(t, c, "CREATE TABLE p (a TEXT)")
	mustExec(t, c, "INSERT INTO p (a) VALUES ('5')")
	res := mustExec(t, c, "SELECT a FROM p WHERE a = 5")
	if len(res.Rows) != 0 {
		t.Fatal("string '5' must not equal number 5")
	}
}

func TestNotEqualsVariants(t *testing.T) {
	db := NewDB()
	c := db.Connect("u", "a", "s")
	mustExec(t, c, "CREATE TABLE p (a INT)")
	mustExec(t, c, "INSERT INTO p (a) VALUES (1), (2)")
	for _, sql := range []string{
		"SELECT a FROM p WHERE a != 1",
		"SELECT a FROM p WHERE a <> 1",
	} {
		res := mustExec(t, c, sql)
		if len(res.Rows) != 1 || res.Rows[0][0] != float64(2) {
			t.Fatalf("%q rows = %v", sql, res.Rows)
		}
	}
}

func TestConcurrentConnections(t *testing.T) {
	db := NewDB()
	setup := db.Connect("admin", "local", "setup")
	mustExec(t, setup, "CREATE TABLE p (a INT)")
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			c := db.Connect("u", "a", "s")
			ok := true
			for i := 0; i < 50; i++ {
				if _, err := c.Exec("INSERT INTO p (a) VALUES (1)"); err != nil {
					ok = false
				}
				if _, err := c.Exec("SELECT * FROM p WHERE a = 1"); err != nil {
					ok = false
				}
			}
			done <- ok
		}(g)
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent exec failed")
		}
	}
	res := mustExec(t, setup, "SELECT * FROM p")
	if len(res.Rows) != 400 {
		t.Fatalf("rows = %d, want 400", len(res.Rows))
	}
}

// Property: the parser never panics on arbitrary input.
func TestParseTotal(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// And on statement-shaped fuzz.
	prefixes := []string{"SELECT ", "INSERT INTO ", "UPDATE ", "DELETE FROM ", "CREATE TABLE "}
	g := func(s string, p uint8) bool {
		_, _ = Parse(prefixes[int(p)%len(prefixes)] + s)
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
