package sqlnorm

import (
	"strings"
	"testing"
)

// Statement text is untrusted input on every ingest, and its template is
// the statement key (§5.1): abstraction must never panic, must be a
// function of the tokens alone — a template abstracts to itself, and
// statements that differ only in literals share one — and a learned
// statement must key to the key Learn gave it.
func FuzzAbstract(f *testing.F) {
	f.Add("Update T_content set count=23 where danmuKey=94")
	f.Add("SELECT * FROM t WHERE x IN (1, 'a', ?, $3) -- tail")
	f.Add("SELECT /* unterminated")
	f.Add("SELECT 'it''s' FROM t")
	f.Add("SELECT café FROM t")
	f.Add("\xa6")
	f.Add("/* hint */ SELECT a FROM t")
	f.Add("-- c\nDELETE FROM t")
	f.Fuzz(func(t *testing.T, sql string) {
		st := Parse(sql)
		if again := Abstract(st.Template); again != st.Template {
			t.Fatalf("Abstract(%q) = %q, but Abstract of that is %q", sql, st.Template, again)
		}
		if re := Parse(st.Template); re != st {
			t.Fatalf("Parse(%q) = %+v, but Parse of its template is %+v", sql, st, re)
		}
		if lit := withLiterals(sql, "?"); Abstract(lit) != st.Template {
			t.Fatalf("Abstract(%q) = %q, but with literals replaced, Abstract(%q) = %q", sql, st.Template, lit, Abstract(lit))
		}
		v := NewVocabulary()
		k := v.Learn(sql)
		if k < 1 {
			t.Fatalf("Learn(%q) = %d, want a key >= 1", sql, k)
		}
		if got := v.Key(sql); got != k {
			t.Fatalf("Key(%q) = %d after Learn gave %d", sql, got, k)
		}
	})
}

// withLiterals returns sql with every literal token replaced by lit.
func withLiterals(sql, lit string) string {
	var b strings.Builder
	lx := lexer{sql: sql}
	last := 0
	for tok, ok := lx.next(); ok; tok, ok = lx.next() {
		if tok.kind == tokNumber || tok.kind == tokString || tok.kind == tokPlaceholder {
			b.WriteString(sql[last : lx.i-len(tok.text)])
			b.WriteString(lit)
			last = lx.i
		}
	}
	b.WriteString(sql[last:])
	return b.String()
}
