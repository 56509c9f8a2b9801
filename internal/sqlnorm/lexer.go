// Package sqlnorm implements the paper's operation tokenization (§5.1):
// every SQL statement is abstracted by replacing each literal with a
// numbered placeholder ($1, $2, …) and mapped to a unique integer
// statement key. Unlike longest-common-subsequence log parsers, the
// abstraction preserves every non-literal token, so statements that
// differ in a single column name receive distinct keys — the property
// the paper relies on to separate "delete … where normal_mac=$1" from
// "delete … where abnormal_mac=$1".
package sqlnorm

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokWord        tokenKind = iota // identifiers and keywords
	tokNumber                       // numeric literal
	tokString                       // quoted string literal
	tokSymbol                       // operators, punctuation, runs of invalid UTF-8
	tokPlaceholder                  // pre-existing ? or $n placeholder
)

// token is one lexeme; text is always a slice of the statement.
type token struct {
	kind tokenKind
	text string
}

// lexer walks a statement token by token, by rune, skipping whitespace
// and comments. It is forgiving: an unterminated quote or block comment
// runs to the end (audit logs may truncate), and a run of bytes that are
// not UTF-8 is one symbol token, kept verbatim.
type lexer struct {
	sql string
	i   int // offset of the next unread byte
}

// next returns the next token, or false at the end of the statement.
func (l *lexer) next() (token, bool) {
	sql, n := l.sql, len(l.sql)
	for l.i < n {
		i := l.i
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.i++
		case strings.HasPrefix(sql[i:], "--"): // line comment
			l.i = n
			if j := strings.IndexByte(sql[i:], '\n'); j >= 0 {
				l.i = i + j
			}
		case strings.HasPrefix(sql[i:], "/*"): // block comment
			l.i = n
			if j := strings.Index(sql[i+2:], "*/"); j >= 0 {
				l.i = i + 2 + j + 2
			}
		case c == '\'' || c == '"' || c == '`':
			j := i + 1
			for ; j < n && (sql[j] != c || j+1 < n && sql[j+1] == c); j++ {
				if sql[j] == c { // doubled-quote escape
					j++
				}
			}
			if j < n {
				j++ // the closing quote
			}
			if c == '`' { // backquoted identifier, not a literal
				return l.emit(tokWord, j), true
			}
			return l.emit(tokString, j), true
		case isDigit(c) || c == '.' && i+1 < n && isDigit(sql[i+1]):
			j, seenDot, seenExp := i, false, false
		number:
			for ; j < n; j++ {
				switch d := sql[j]; {
				case isDigit(d):
				case d == '.' && !seenDot && !seenExp:
					seenDot = true
				case (d == 'e' || d == 'E') && !seenExp && j > i:
					seenExp = true
					if j+1 < n && (sql[j+1] == '+' || sql[j+1] == '-') {
						j++
					}
				default:
					break number
				}
			}
			return l.emit(tokNumber, j), true
		case c == '?':
			return l.emit(tokPlaceholder, i+1), true
		case c == '$' && i+1 < n && isDigit(sql[i+1]):
			j := i + 1
			for j < n && isDigit(sql[j]) {
				j++
			}
			return l.emit(tokPlaceholder, j), true
		default:
			r, size := runeAt(sql, i)
			j := i + size
			switch {
			case unicode.IsLetter(r) || r == '_':
				for j < n {
					r, size := runeAt(sql, j)
					if !isWordPart(r) {
						break
					}
					j += size
				}
				return l.emit(tokWord, j), true
			case r == utf8.RuneError && size == 1:
				for j < n {
					if r, size := runeAt(sql, j); r != utf8.RuneError || size != 1 {
						break
					}
					j++
				}
			case j < n:
				switch sql[i : j+1] { // multi-char operators worth keeping intact
				case "<=", ">=", "<>", "!=", "||":
					j++
				}
			}
			return l.emit(tokSymbol, j), true
		}
	}
	return token{}, false
}

// emit returns the token sql[l.i:end] and moves past it.
func (l *lexer) emit(kind tokenKind, end int) token {
	tok := token{kind, l.sql[l.i:end]}
	l.i = end
	return tok
}

// runeAt decodes the rune at sql[i:]; an invalid byte is (RuneError, 1).
func runeAt(sql string, i int) (rune, int) {
	if c := sql[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(sql[i:])
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isWordPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || unicode.IsMark(r)
}
