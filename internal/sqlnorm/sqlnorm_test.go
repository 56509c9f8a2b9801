package sqlnorm

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAbstractPaperExample(t *testing.T) {
	got := Abstract("Update T_content set count=23 where danmuKey=94")
	want := "UPDATE T_content SET count = $1 WHERE danmuKey = $2"
	if got != want {
		t.Fatalf("Abstract = %q, want %q", got, want)
	}
}

func TestAbstractDistinguishesColumnNames(t *testing.T) {
	a := Abstract("delete from t_mac where normal_mac=1")
	b := Abstract("delete from t_mac where abnormal_mac=1")
	if a == b {
		t.Fatalf("templates must differ: %q", a)
	}
}

func TestAbstractLiterals(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM t WHERE a=1 AND b='x'", "SELECT * FROM t WHERE a = $1 AND b = $2"},
		{"SELECT * FROM t WHERE s='it''s'", "SELECT * FROM t WHERE s = $1"},
		{`SELECT * FROM t WHERE s="dq"`, "SELECT * FROM t WHERE s = $1"},
		{"SELECT * FROM t WHERE x IN (1, 2, 3)", "SELECT * FROM t WHERE x IN ($1, $2, $3)"},
		{"SELECT * FROM t WHERE f=3.14 OR g=1e-3", "SELECT * FROM t WHERE f = $1 OR g = $2"},
		{"SELECT * FROM t WHERE a=? AND b=$5", "SELECT * FROM t WHERE a = $1 AND b = $2"},
		{"SELECT * FROM t -- trailing comment\nWHERE a=1", "SELECT * FROM t WHERE a = $1"},
		{"SELECT /* hi */ * FROM t", "SELECT * FROM t"},
		{"select a.b from t", "SELECT a.b FROM t"},
		{"INSERT INTO t(a, b) VALUES (1, 2)", "INSERT INTO t (a, b) VALUES ($1, $2)"},
		{"", ""},
	}
	for _, tc := range cases {
		if got := Abstract(tc.in); got != tc.want {
			t.Errorf("Abstract(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// Numeric and quoted literal variants of the same statement shape must
// share one template key.
func TestAbstractNumericVsQuotedShareTemplate(t *testing.T) {
	pairs := [][2]string{
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE a = 'one'"},
		{"UPDATE t SET c = 3.14 WHERE k = 9", `UPDATE t SET c = "pi" WHERE k = 'nine'`},
	}
	for _, p := range pairs {
		if a, b := Abstract(p[0]), Abstract(p[1]); a != b {
			t.Errorf("Abstract(%q) = %q but Abstract(%q) = %q; want identical", p[0], a, p[1], b)
		}
	}
}

func TestAbstractWhitespaceInvariance(t *testing.T) {
	a := Abstract("SELECT  *\n FROM\tt WHERE a=1")
	b := Abstract("SELECT * FROM t WHERE a=2")
	if a != b {
		t.Fatalf("whitespace/literal variants should share a template: %q vs %q", a, b)
	}
}

// Property: abstraction is idempotent — abstracting a template yields
// the same template (placeholders renumber to themselves).
func TestAbstractIdempotent(t *testing.T) {
	stmts := []string{
		"SELECT * FROM t WHERE a=1 AND b='x'",
		"INSERT INTO danmu_display(vid, uid, text) VALUES (1, 2, 'hello')",
		"UPDATE t_cell_fp_9 SET fps=3 WHERE pnci=77",
		"DELETE FROM loc_rm WHERE dev='d' AND ts<100",
		"SELECT * FROM t WHERE x IN (1, 2, 3) AND y = 4",
	}
	for _, s := range stmts {
		once := Abstract(s)
		twice := Abstract(once)
		if once != twice {
			t.Errorf("not idempotent: %q -> %q", once, twice)
		}
	}
}

// Property: Abstract never panics on arbitrary input.
func TestAbstractTotal(t *testing.T) {
	f := func(s string) bool {
		_ = Abstract(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAbstractUnterminatedString(t *testing.T) {
	got := Abstract("SELECT * FROM t WHERE s='unterminated")
	if !strings.Contains(got, "$1") {
		t.Fatalf("unterminated literal should still become a placeholder: %q", got)
	}
}

func TestCommandOf(t *testing.T) {
	cases := map[string]string{
		"SELECT * FROM t":         "SELECT",
		"insert into t values(1)": "INSERT",
		"Update t set a=1":        "UPDATE",
		"DELETE FROM t":           "DELETE",
		"":                        "",
	}
	for in, want := range cases {
		if got := CommandOf(in); got != want {
			t.Errorf("CommandOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTableOf(t *testing.T) {
	cases := map[string]string{
		"SELECT * FROM t_rm_mac WHERE a = $1":             "t_rm_mac",
		"INSERT INTO danmu_display(a, b) VALUES ($1, $2)": "danmu_display",
		"UPDATE T_content SET count = $1":                 "T_content",
		"DELETE FROM loc_rm WHERE x = $1":                 "loc_rm",
		"CREATE TABLE users (id INT)":                     "users",
		"SELECT 1":                                        "",
	}
	for in, want := range cases {
		if got := TableOf(in); got != want {
			t.Errorf("TableOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestVocabularyAssignsStableKeys(t *testing.T) {
	v := NewVocabulary()
	k1 := v.Learn("SELECT * FROM a WHERE x=1")
	k2 := v.Learn("SELECT * FROM b WHERE x=1")
	k1again := v.Learn("SELECT * FROM a WHERE x=999") // same template
	if k1 != 1 || k2 != 2 {
		t.Fatalf("keys = %d, %d; want 1, 2", k1, k2)
	}
	if k1again != k1 {
		t.Fatalf("same template must reuse key: %d vs %d", k1again, k1)
	}
	if v.Size() != 3 { // k0 + two templates
		t.Fatalf("Size = %d, want 3", v.Size())
	}
}

func TestVocabularyUnknownIsPadKey(t *testing.T) {
	v := NewVocabulary()
	v.Learn("SELECT * FROM a")
	if k := v.Key("DROP TABLE a"); k != PadKey {
		t.Fatalf("unknown statement key = %d, want PadKey", k)
	}
	if k := v.Key("SELECT * FROM a"); k != 1 {
		t.Fatalf("known statement key = %d, want 1", k)
	}
}

func TestVocabularyTemplateLookup(t *testing.T) {
	v := NewVocabulary()
	k := v.Learn("SELECT * FROM a WHERE x=1")
	if tpl := v.Template(k); tpl != "SELECT * FROM a WHERE x = $1" {
		t.Fatalf("Template = %q", tpl)
	}
	if v.Template(0) != "" || v.Template(99) != "" || v.Template(-1) != "" {
		t.Fatal("invalid keys must return empty template")
	}
}

func TestVocabularySaveLoad(t *testing.T) {
	v := NewVocabulary()
	v.Learn("SELECT * FROM a WHERE x=1")
	v.Learn("DELETE FROM b WHERE y=2")
	loaded, err := FromTemplates(v.Templates())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != v.Size() {
		t.Fatalf("size %d, want %d", loaded.Size(), v.Size())
	}
	if k := loaded.Key("SELECT * FROM a WHERE x=42"); k != 1 {
		t.Fatalf("loaded key = %d, want 1", k)
	}
}

// Only the classic mode is left, so a save/load round trip keeps it;
// a vocabulary saved in the removed dynamic mode (k0 slot "#dynamic",
// IN lists collapsed) must be refused, not loaded as a classic one that
// would split its collapsed templates by list length.
func TestDynamicVocabularySaveLoadKeepsMode(t *testing.T) {
	v := NewVocabulary()
	k := v.Learn("SELECT * FROM t WHERE x IN (1, 2, 3)")
	loaded, err := FromTemplates(v.Templates())
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Key("SELECT * FROM t WHERE x IN (9, 8, 7)"); got != k {
		t.Fatalf("loaded key = %d, want %d", got, k)
	}
	if _, err := FromTemplates([]string{"#dynamic", "SELECT * FROM t WHERE x IN (...)"}); err == nil {
		t.Fatal("dynamic-mode vocabulary accepted")
	}
}

func TestLoadVocabularyRejectsGarbage(t *testing.T) {
	// The k0 slot is always "": no vocabulary is saved with anything else there.
	if _, err := FromTemplates([]string{"SELECT", "SELECT * FROM t"}); err == nil {
		t.Fatal("k0 slot \"SELECT\" accepted")
	}
}

func TestVocabularyConcurrentUse(t *testing.T) {
	v := NewVocabulary()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				v.Learn("SELECT * FROM t WHERE a=1")
				v.Key("SELECT * FROM t WHERE a=2")
				v.Template(1)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d, want 2", v.Size())
	}
}
