// Package jsonwire is the fixed-schema JSON codec of the ingest path:
// the audit-log line (internal/feed), the event batch a feeder posts
// and a server decodes, and the WAL's event records (internal/serve)
// each cost one pass over their bytes, with no reflection and no
// intermediate value.
//
// The codec answers to encoding/json, not to the JSON grammar alone. A
// Decoder accepts exactly the texts json.Unmarshal accepts for the
// struct its caller fills, and fills it with equal values; the Append
// functions write exactly json.Marshal's bytes. Only the structure is
// hand-written here: numbers go through strconv, and times through
// time.Time's own UnmarshalJSON and AppendFormat. The differential fuzz
// targets beside each caller hold the codec to encoding/json.
package jsonwire

import (
	"errors"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Errors a Decoder reports for a text it does not accept.
var (
	// ErrSyntax: the text is not exactly one JSON value.
	ErrSyntax = errors.New("jsonwire: invalid JSON")
	// ErrMismatch: the text is JSON, but some value does not fit the
	// field it names (a number for a string, 1.5 for an integer, a
	// timestamp time.Time does not parse), as json.Unmarshal would
	// report with an UnmarshalTypeError or the field's own error.
	ErrMismatch = errors.New("jsonwire: JSON value does not fit its field")
)

// maxDepth is encoding/json's nesting limit: its scanner refuses a text
// with more than this many arrays and objects open at once.
const maxDepth = 10000

// A Decoder walks one JSON text, decoding the members of a fixed
// struct as the caller names them and skipping (but still validating)
// everything else. Methods that read a value expect the cursor where a
// value starts: at the start of the text, after Member's key, or after
// Elem. A syntax error moves the cursor to the end, so every later call
// returns at once; Err reports it once the caller is done.
//
// Decoded strings are copies: nothing a Decoder returns aliases the
// text, which may be a reused buffer.
type Decoder struct {
	data     []byte
	off      int
	depth    int
	invalid  bool
	mismatch bool
	buf      []byte // unquoting scratch; reused across Resets
}

// Reset points the decoder at the start of data, keeping its scratch.
func (d *Decoder) Reset(data []byte) {
	d.data, d.off, d.depth, d.invalid, d.mismatch = data, 0, 0, false, false
}

// Err reports why the text is not accepted: ErrSyntax before
// ErrMismatch, as json.Unmarshal checks the whole text before it
// decodes any of it. Nil means accepted so far.
func (d *Decoder) Err() error {
	switch {
	case d.invalid:
		return ErrSyntax
	case d.mismatch:
		return ErrMismatch
	}
	return nil
}

// End skips whitespace and reports whether the text ends there.
func (d *Decoder) End() bool {
	d.skipSpace()
	return d.off == len(d.data)
}

func (d *Decoder) fail() {
	d.invalid = true
	d.off = len(d.data)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (d *Decoder) skipSpace() {
	for d.off < len(d.data) && isSpace(d.data[d.off]) {
		d.off++
	}
}

// peek skips whitespace to the next value and returns its first byte;
// at the end of the text it records a syntax error and returns 0.
func (d *Decoder) peek() byte {
	d.skipSpace()
	if d.off == len(d.data) {
		d.fail()
		return 0
	}
	return d.data[d.off]
}

// Peek returns the first byte of the value at the cursor (0 at the end
// of the text, a syntax error) without consuming it.
func (d *Decoder) Peek() byte { return d.peek() }

// open consumes the '{' or '[' at the cursor.
func (d *Decoder) open() bool {
	d.off++
	if d.depth++; d.depth > maxDepth {
		d.fail()
		return false
	}
	return true
}

// Object starts decoding the value at the cursor into a struct. It
// reports true after consuming an object's '{'; read its members with
// Member. null is consumed and leaves the struct as it is (false), as
// json.Unmarshal does; any other value is a mismatch, skipped (false).
func (d *Decoder) Object() bool {
	switch d.peek() {
	case '{':
		return d.open()
	case 'n':
		d.literal("null")
	default:
		d.mismatch = true
		d.Skip()
	}
	return false
}

// Member advances to member n (counting from 0) of the object Object
// opened, consumes its key and colon, and returns the key, unquoted;
// the key is valid until the next call. At the closing '}' it consumes
// it and reports false. The caller consumes the member's value before
// asking for member n+1.
func (d *Decoder) Member(n int) (key []byte, ok bool) {
	d.skipSpace()
	if d.off == len(d.data) {
		d.fail()
		return nil, false
	}
	switch c := d.data[d.off]; {
	case c == '}':
		d.off++
		d.depth--
		return nil, false
	case n > 0 && c == ',':
		d.off++
		d.skipSpace()
	case n > 0:
		d.fail()
		return nil, false
	}
	if d.off == len(d.data) || d.data[d.off] != '"' {
		d.fail()
		return nil, false
	}
	key, ok = d.str()
	if !ok {
		return nil, false
	}
	d.skipSpace()
	if d.off == len(d.data) || d.data[d.off] != ':' {
		d.fail()
		return nil, false
	}
	d.off++
	return key, true
}

// Array starts decoding the value at the cursor into a slice. It
// reports true after consuming an array's '['; step through it with
// Elem. null is consumed (false); any other value is a mismatch,
// skipped (false).
func (d *Decoder) Array() bool {
	switch d.peek() {
	case '[':
		return d.open()
	case 'n':
		d.literal("null")
	default:
		d.mismatch = true
		d.Skip()
	}
	return false
}

// Elem reports whether the array Array opened has an element n
// (counting from 0), leaving the cursor on it; the caller consumes it
// before asking for element n+1. At the closing ']' it consumes it and
// reports false.
func (d *Decoder) Elem(n int) bool {
	d.skipSpace()
	if d.off == len(d.data) {
		d.fail()
		return false
	}
	switch c := d.data[d.off]; {
	case c == ']':
		d.off++
		d.depth--
		return false
	case n > 0 && c == ',':
		d.off++
	case n > 0:
		d.fail()
		return false
	}
	return true
}

// String decodes the value at the cursor into *dst: a string replaces
// it, null leaves it, anything else is a mismatch.
func (d *Decoder) String(dst *string) {
	switch d.peek() {
	case '"':
		if s, ok := d.str(); ok {
			*dst = string(s)
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch = true
		d.Skip()
	}
}

// Int64 decodes the value at the cursor into *dst: an integer literal
// that fits int64 replaces it (-0 included, as strconv reads it), null
// leaves it, anything else — 1e3 and 1.0 too — is a mismatch.
func (d *Decoder) Int64(dst *int64) {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, ok := d.number()
		if !ok {
			return
		}
		n, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			d.mismatch = true
			return
		}
		*dst = n
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch = true
		d.Skip()
	}
}

// Time decodes the value at the cursor into *dst the way json.Unmarshal
// does: it hands the quoted literal, escapes and all, to
// time.Time.UnmarshalJSON. null leaves *dst; a value UnmarshalJSON
// refuses, and any value that is not a string, is a mismatch.
func (d *Decoder) Time(dst *time.Time) {
	switch d.peek() {
	case '"':
		start := d.off
		if _, ok := d.str(); ok && dst.UnmarshalJSON(d.data[start:d.off]) != nil {
			d.mismatch = true
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch = true
		d.Skip()
	}
}

// Skip consumes the value at the cursor, validating it.
func (d *Decoder) Skip() {
	switch c := d.peek(); {
	case c == '{':
		if !d.open() {
			return
		}
		for n := 0; ; n++ {
			if _, ok := d.Member(n); !ok {
				return
			}
			d.Skip()
		}
	case c == '[':
		if !d.open() {
			return
		}
		for n := 0; d.Elem(n); n++ {
			d.Skip()
		}
	case c == '"':
		d.str()
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	default:
		d.fail()
	}
}

func (d *Decoder) literal(word string) {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		d.fail()
		return
	}
	d.off += len(word)
}

// number consumes the number literal at the cursor and returns it:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *Decoder) number() ([]byte, bool) {
	b, start := d.data, d.off
	i := start
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.fail()
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			d.fail()
			return nil, false
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			d.fail()
			return nil, false
		}
		i = digits(b, i)
	}
	d.off = i
	return b[start:i], true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// str consumes the string literal at the cursor and returns its
// contents unquoted as json.Unmarshal unquotes them: escapes resolved,
// and each lone surrogate escape and each byte of invalid UTF-8 turned
// into U+FFFD. The result is a slice of the text when nothing needed
// changing, else of the decoder's scratch.
func (d *Decoder) str() ([]byte, bool) {
	b := d.data
	i := d.off + 1
	for i < len(b) {
		c := b[i]
		if c == '"' {
			s := b[d.off+1 : i]
			d.off = i + 1
			return s, true
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	out := append(d.buf[:0], b[d.off+1:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.buf = out
			d.off = i + 1
			return out, true
		case c < 0x20:
			d.fail()
			return nil, false
		case c == '\\':
			var ok bool
			if out, i, ok = unescape(out, b, i); !ok {
				d.fail()
				return nil, false
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.fail()
	return nil, false
}

// unescape appends the escape sequence at b[i] (a backslash) to out.
func unescape(out, b []byte, i int) ([]byte, int, bool) {
	if i+1 == len(b) {
		return out, i, false
	}
	switch c := b[i+1]; c {
	case '"', '\\', '/':
		return append(out, c), i + 2, true
	case 'b':
		return append(out, '\b'), i + 2, true
	case 'f':
		return append(out, '\f'), i + 2, true
	case 'n':
		return append(out, '\n'), i + 2, true
	case 'r':
		return append(out, '\r'), i + 2, true
	case 't':
		return append(out, '\t'), i + 2, true
	case 'u':
		r := hex4(b[i+2:])
		if r < 0 {
			return out, i, false
		}
		i += 6
		if utf16.IsSurrogate(r) {
			// A high surrogate and the low one escaped right after it are
			// one rune; any other surrogate stands alone and is U+FFFD.
			r2 := rune(-1)
			if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
				r2 = hex4(b[i+2:])
			}
			if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
				return utf8.AppendRune(out, pair), i + 6, true
			}
			r = unicode.ReplacementChar
		}
		return utf8.AppendRune(out, r), i, true
	}
	return out, i, false
}

// hex4 reads the four hex digits at the start of b; -1 if there are not
// four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Fields is a struct's set of JSON member names, in field order.
type Fields struct {
	names  []string
	folded []string
}

// NewFields lists a struct's JSON member names in field order.
func NewFields(names ...string) *Fields {
	f := &Fields{names: names}
	for _, n := range names {
		f.folded = append(f.folded, string(appendFold(nil, []byte(n))))
	}
	return f
}

// Index returns the position of the field json.Unmarshal sets for key:
// the field named key exactly, else the one whose name equals key under
// encoding/json's case folding (ASCII letters, and Unicode simple
// folding, so "ſql" and "SQL" both set sql). -1 means no field: the
// member is skipped.
func (f *Fields) Index(key []byte) int {
	for i, n := range f.names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	k := appendFold(arr[:0], key)
	for i, n := range f.folded {
		if string(k) == n {
			return i
		}
	}
	return -1
}

// appendFold appends s's case fold as encoding/json computes it: ASCII
// letters upper-cased, every other rune replaced by the smallest rune
// of its simple-folding orbit.
func appendFold(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		for {
			next := unicode.SimpleFold(r)
			if next <= r {
				r = next
				break
			}
			r = next
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}
