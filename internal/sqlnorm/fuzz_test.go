package sqlnorm

import "testing"

// Statement text is untrusted input on every ingest: abstraction must
// never panic, must be a function of the text alone, and a learned
// statement must key to the key Learn gave it.
//
// Abstract is not asserted idempotent: the byte-wise lexer splits
// multi-byte UTF-8 outside literals ("SELECT café FROM t" abstracts to
// invalid UTF-8), so a second pass can differ from the first.
func FuzzAbstract(f *testing.F) {
	f.Add("Update T_content set count=23 where danmuKey=94")
	f.Add("SELECT * FROM t WHERE x IN (1, 'a', ?, $3) -- tail")
	f.Add("SELECT /* unterminated")
	f.Add("SELECT 'it''s' FROM t")
	f.Add("SELECT café FROM t")
	f.Add("\xa6")
	f.Fuzz(func(t *testing.T, sql string) {
		tpl := Abstract(sql)
		if again := Abstract(sql); again != tpl {
			t.Fatalf("Abstract(%q) = %q, then %q", sql, tpl, again)
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
