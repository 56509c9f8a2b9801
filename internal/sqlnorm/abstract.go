package sqlnorm

import (
	"strconv"
	"strings"
)

// Statement is what one lexer pass reads off a SQL statement.
type Statement struct {
	// Template is the statement with each literal (number, quoted string
	// or placeholder) replaced by the next "$k", comments dropped,
	// whitespace normalized and keywords upper-cased. Identifiers keep
	// their case, so look-alike statements stay apart, and an IN list
	// keeps one placeholder per element (Figure 6; Scenario-II's Table 1
	// key counts depend on it).
	Template string
	// Command is the template's first word, upper-cased ("" if none).
	// Table is the word after the first FROM (SELECT, DELETE), INTO
	// (INSERT) or TABLE (CREATE, DROP, ALTER), or after UPDATE, cut at
	// any "(", "," or ";" ("" if none). A word is what the template
	// prints between two spaces ("t", "a.b", "t,").
	Command, Table string
}

// Parse lexes a statement once and reads its template, command and
// table off that pass.
//
//	Parse("Update T_content set count=23 where danmuKey=94") == Statement{
//		Template: "UPDATE T_content SET count = $1 WHERE danmuKey = $2",
//		Command:  "UPDATE",
//		Table:    "T_content",
//	}
func Parse(sql string) Statement {
	var b strings.Builder
	var w words
	lx, prev, n := lexer{sql: sql}, token{}, 0 // n: placeholders written
	b.Grow(len(sql) + 8)
	for tok, ok := lx.next(); ok; tok, ok = lx.next() {
		if b.Len() > 0 && needsSpace(prev, tok) {
			w.read(b.String())
			b.WriteByte(' ')
		}
		switch tok.kind {
		case tokNumber, tokString, tokPlaceholder:
			n++
			b.WriteByte('$')
			b.WriteString(strconv.Itoa(n))
		case tokWord:
			writeWord(&b, tok.text)
		default:
			b.WriteString(tok.text)
		}
		prev = tok
	}
	w.read(b.String())
	w.st.Template = b.String()
	if i := strings.IndexAny(w.st.Table, "(,;"); i >= 0 {
		w.st.Table = w.st.Table[:i]
	}
	return w.st
}

// Abstract returns a statement's template (see Statement.Template).
//
//	Abstract("Update T_content set count=23 where danmuKey=94")
//	  == "UPDATE T_content SET count = $1 WHERE danmuKey = $2"
func Abstract(sql string) string { return Parse(sql).Template }

// tableAfter names, per command, the word its table follows.
var tableAfter = map[string]string{
	"SELECT": "FROM", "DELETE": "FROM", "INSERT": "INTO", "UPDATE": "UPDATE",
	"CREATE": "TABLE", "DROP": "TABLE", "ALTER": "TABLE",
}

// words reads the command and table off the template as Parse writes it.
type words struct {
	st          Statement
	n, lo       int    // words read; where the next one starts
	anchor      string // the word the table follows; "" once it is read
	afterAnchor bool   // the last word read was the anchor
}

// read takes the word that ends the template written so far.
func (w *words) read(tpl string) {
	word := tpl[w.lo:]
	switch {
	case w.n == 0:
		w.st.Command = strings.ToUpper(word)
		w.anchor = tableAfter[w.st.Command]
	case w.afterAnchor:
		w.st.Table, w.anchor = word, ""
	}
	w.afterAnchor = w.anchor != "" && word == w.anchor
	w.n++
	w.lo = len(tpl) + 1 // past the space that follows
}

// needsSpace reports whether the template puts a space between two tokens.
func needsSpace(prev, cur token) bool {
	return cur.text != "," && cur.text != ")" && cur.text != "." && cur.text != ";" &&
		prev.text != "(" && prev.text != "."
}

// writeWord writes an identifier as is and a keyword upper-cased.
// Keywords are ASCII, and only ASCII letters fold to match one.
func writeWord(b *strings.Builder, w string) {
	var up [8]byte // the longest keyword, "DISTINCT", has 8 letters
	if len(w) <= len(up) {
		for i := 0; i < len(w); i++ {
			up[i] = w[i] &^ ('a' - 'A') // only an ASCII letter lands in A-Z
		}
		if sqlKeywords[string(up[:len(w)])] {
			b.Write(up[:len(w)])
			return
		}
	}
	b.WriteString(w)
}

// sqlKeywords is the subset of keywords we normalize; identifiers not in
// this set keep their original case so that look-alike table names stay
// distinct.
var sqlKeywords = map[string]bool{
	"SELECT": true, "INSERT": true, "UPDATE": true, "DELETE": true,
	"CREATE": true, "DROP": true, "ALTER": true, "TABLE": true,
	"FROM": true, "WHERE": true, "INTO": true, "VALUES": true,
	"SET": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"LIKE": true, "BETWEEN": true, "ORDER": true, "BY": true,
	"GROUP": true, "HAVING": true, "LIMIT": true, "OFFSET": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true,
	"OUTER": true, "ON": true, "AS": true, "DISTINCT": true,
	"NULL": true, "IS": true, "ASC": true, "DESC": true,
	"PRIMARY": true, "KEY": true, "INT": true, "INTEGER": true,
	"FLOAT": true, "REAL": true, "TEXT": true, "VARCHAR": true,
	"COUNT": false, // common column name in the paper's examples
}
