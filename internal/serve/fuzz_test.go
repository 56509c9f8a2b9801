package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// The ingest body is untrusted input: DecodeEvents must never panic, and
// a body it accepts is exactly one JSON value whose shape it reports.
func FuzzDecodeEvents(f *testing.F) {
	f.Add([]byte(`{"client_id":"c1","user":"u","sql":"SELECT * FROM t WHERE a = 1"}`))
	f.Add([]byte(` [{"client_id":"c1","user":"u","sql":"SELECT 1","seq":1,"epoch":1}]`))
	f.Add([]byte(`[{"user":"u","sql":"SELECT 1"}] [{"user":"u","sql":"SELECT 2"}]`))
	f.Add([]byte(`{"user":"u","sql":"SELECT 1"} garbage`))
	f.Add([]byte("\n[]\t"))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/events", bytes.NewReader(body))
		events, isArray, err := DecodeEvents(req)
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted %q, which is not exactly one JSON value", body)
		}
		first := bytes.TrimLeft(body, " \t\r\n")
		if wantArray := first[0] == '['; isArray != wantArray {
			t.Fatalf("%q: isArray = %v, want %v", body, isArray, wantArray)
		}
		if !isArray && len(events) != 1 {
			t.Fatalf("%q: an object body decoded to %d events", body, len(events))
		}
	})
}
