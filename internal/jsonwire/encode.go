package jsonwire

import (
	"fmt"
	"time"
	"unicode/utf8"
)

// safe[c] reports whether json.Marshal writes the ASCII byte c into a
// string as it is: printable, and none of " \ < > &.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hex = "0123456789abcdef"

// AppendString appends s quoted as json.Marshal writes a string: " and
// \ backslashed, \b \f \n \r \t by name, the other control bytes and
// the HTML-sensitive < > & as \u00XX, U+2028 and U+2029 as \u2028 and
// \u2029, and each byte of invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendTime appends t as json.Marshal writes a time.Time: quoted RFC
// 3339 with nanoseconds. Like time.Time.MarshalJSON it refuses a year
// outside [0,9999] and a zone offset of 24 hours or more, with
// json.Marshal's error text; typ is the Go type json.Marshal names
// there ("time.Time", or "*time.Time" for a pointer field).
func AppendTime(dst []byte, t time.Time, typ string) ([]byte, error) {
	n := len(dst)
	dst = t.AppendFormat(append(dst, '"'), time.RFC3339Nano)
	b := dst[n+1:]
	if b[len("9999")] != '-' ||
		b[len(b)-1] != 'Z' && (isDigit(b[len(b)-len("Z07:00")]) || twoDigits(b[len(b)-len("07:00"):]) >= 24) {
		_, err := t.MarshalJSON()
		return dst[:n], fmt.Errorf("json: error calling MarshalJSON for type %s: %w", typ, err)
	}
	return append(dst, '"'), nil
}

func twoDigits(b []byte) int { return int(b[0]-'0')*10 + int(b[1]-'0') }
