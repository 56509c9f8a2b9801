package sqlnorm

import "strings"

// Abstract rewrites a SQL statement into its template form: every
// literal (number, quoted string, or pre-existing placeholder) becomes a
// sequentially numbered "$k" placeholder, comments are stripped and
// whitespace is normalized. Keywords are upper-cased and identifiers
// preserved, so templates are stable across formatting differences but
// still distinguish fine-grained statement variants.
//
//	Abstract("Update T_content set count=23 where danmuKey=94")
//	  == "UPDATE T_content SET count = $1 WHERE danmuKey = $2"
//
// Abstract keeps one placeholder per literal position, so IN lists of
// different lengths are distinct templates — the paper's Figure 6
// semantics, which Scenario-II's Table 1 key counts depend on.
func Abstract(sql string) string {
	return render(lex(sql))
}

// render emits the normalized template text for a token stream.
func render(toks []token) string {
	var b strings.Builder
	placeholder := 0
	for i, tok := range toks {
		text := tok.text
		switch tok.kind {
		case tokNumber, tokString, tokPlaceholder:
			placeholder++
			text = "$" + itoa(placeholder)
		case tokWord:
			if isKeyword(text) {
				text = strings.ToUpper(text)
			}
		}
		if i > 0 && needsSpace(toks[i-1], tok) {
			b.WriteByte(' ')
		}
		b.WriteString(text)
	}
	return b.String()
}

// needsSpace decides whether to emit a separating space between two
// tokens in the normalized rendering.
func needsSpace(prev, cur token) bool {
	if cur.text == "," || cur.text == ")" || cur.text == "." || cur.text == ";" {
		return false
	}
	if prev.text == "(" || prev.text == "." {
		return false
	}
	return true
}

// itoa avoids pulling strconv into the hot path for tiny ints.
func itoa(n int) string {
	if n < 10 {
		return string([]byte{byte('0' + n)})
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// sqlKeywords is the subset of keywords we normalize; identifiers not in
// this set keep their original case so that look-alike table names stay
// distinct.
var sqlKeywords = map[string]bool{
	"select": true, "insert": true, "update": true, "delete": true,
	"create": true, "drop": true, "alter": true, "table": true,
	"from": true, "where": true, "into": true, "values": true,
	"set": true, "and": true, "or": true, "not": true, "in": true,
	"like": true, "between": true, "order": true, "by": true,
	"group": true, "having": true, "limit": true, "offset": true,
	"join": true, "inner": true, "left": true, "right": true,
	"outer": true, "on": true, "as": true, "distinct": true,
	"null": true, "is": true, "asc": true, "desc": true,
	"primary": true, "key": true, "int": true, "integer": true,
	"float": true, "real": true, "text": true, "varchar": true,
	"count": false, // common column name in the paper's examples
}

func isKeyword(w string) bool { return sqlKeywords[strings.ToLower(w)] }

// CommandOf returns the upper-cased leading command of a template
// ("SELECT", "INSERT", "UPDATE", "DELETE", …), or "" for an empty
// statement.
func CommandOf(template string) string {
	fields := strings.Fields(template)
	if len(fields) == 0 {
		return ""
	}
	return strings.ToUpper(fields[0])
}

// TableOf extracts the primary table a template operates on: the word
// after FROM (SELECT/DELETE), after INTO (INSERT), after UPDATE, or
// after TABLE (CREATE/DROP/ALTER). Returns "" when no table is found.
func TableOf(template string) string {
	fields := strings.Fields(template)
	anchor := ""
	switch CommandOf(template) {
	case "SELECT", "DELETE":
		anchor = "FROM"
	case "INSERT":
		anchor = "INTO"
	case "UPDATE":
		return wordAfter(fields, 0)
	case "CREATE", "DROP", "ALTER":
		anchor = "TABLE"
	default:
		return ""
	}
	for i, f := range fields {
		if strings.EqualFold(f, anchor) {
			return wordAfter(fields, i)
		}
	}
	return ""
}

// wordAfter returns fields[i+1] stripped of trailing punctuation such as
// "(" introduced by INSERT INTO t(cols…).
func wordAfter(fields []string, i int) string {
	if i+1 >= len(fields) {
		return ""
	}
	w := fields[i+1]
	if p := strings.IndexAny(w, "(,;"); p >= 0 {
		w = w[:p]
	}
	return w
}
