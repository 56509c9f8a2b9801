package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"testing"
	"time"
)

// decodeEventsJSON is DecodeEvents as encoding/json answers it: the
// first value decoded into a RawMessage by a streaming decoder, nothing
// but whitespace after it, then the value unmarshalled as an array or an
// object. It is the contract decodeEvents is held to.
func decodeEventsJSON(r io.Reader) ([]Event, bool, error) {
	dec := json.NewDecoder(r)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, false, errors.New("invalid JSON body")
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, false, errors.New("invalid JSON body: data after the first value")
	}
	if bytes.TrimLeft(raw, " \t\r\n")[0] == '[' {
		var events []Event
		if err := json.Unmarshal(raw, &events); err != nil {
			return nil, true, errors.New("invalid event array")
		}
		return events, true, nil
	}
	var ev Event
	if err := json.Unmarshal(raw, &ev); err != nil {
		return nil, false, errors.New("invalid event object")
	}
	return []Event{ev}, false, nil
}

// sameTime is time equality as a decoder must keep it: the instant and
// the zone offset.
func sameTime(a, b time.Time) bool {
	_, oa := a.Zone()
	_, ob := b.Zone()
	return a.Equal(b) && oa == ob
}

func sameEvents(a, b []Event) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !sameTime(x.Time, y.Time) {
			return false
		}
		x.Time, y.Time = time.Time{}, time.Time{}
		if x != y {
			return false
		}
	}
	return true
}

// The ingest body is untrusted input: DecodeEvents must never panic, a
// body it accepts is exactly one JSON value whose shape it reports, and
// it answers every body exactly as encoding/json does — the same
// events, the same shape, the same error.
func FuzzDecodeEvents(f *testing.F) {
	f.Add([]byte(`{"client_id":"c1","user":"u","sql":"SELECT * FROM t WHERE a = 1"}`))
	f.Add([]byte(` [{"client_id":"c1","user":"u","sql":"SELECT 1","seq":1,"epoch":1}]`))
	f.Add([]byte(`[{"user":"u","sql":"SELECT 1"}] [{"user":"u","sql":"SELECT 2"}]`))
	f.Add([]byte(`{"user":"u","sql":"SELECT 1"} garbage`))
	f.Add([]byte("\n[]\t"))
	f.Add([]byte(`not json`))
	f.Add([]byte(`[{"SQL":"a","ſql":"b","User":"u","uſer":"v","\u212Aey":1,"CLIENT_ID":"c"}]`))
	f.Add([]byte(`{"sql":"a","sql":"b","user":"u","user":null,"seq":2,"seq":null,"epoch":1,"ts":null}`))
	f.Add([]byte(`[null,{"sql":"x"},null]`))
	f.Add([]byte(`{"sql":"x","seq":1e3,"epoch":1}`))
	f.Add([]byte(`{"sql":"x","seq":-0,"epoch":1}`))
	f.Add([]byte(`{"sql":"x","seq":9223372036854775808,"epoch":1}`))
	f.Add([]byte(`{"sql":"x","seq":-9223372036854775808,"epoch":9223372036854775807}`))
	f.Add([]byte(`{"sql":"\ud800 \udc00 \ud83d\ude00 \ud800\u0041 \uDBFF","user":"\u00e9\u0000"}`))
	f.Add([]byte("{\"sql\":\"\xff\xfe caf\xc3\xa9 \xed\xa0\x80\",\"addr\":\"a\xc3\"}"))
	f.Add([]byte(`{"sql":"<a href=\"x\">&amp;</a> \u2028\u2029","user":"u"}`))
	f.Add([]byte(`{"sql":"x","ts":"10000-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"sql":"x","ts":"2026-01-01T00:00:00.123456789+05:30"}`))
	f.Add([]byte(`{"sql":"x","ts":"2026-01-01T00:00:00\u005a"}`))
	f.Add([]byte(`{"sql":"x","ts":1,"tenant":7,"user":true,"addr":{},"client_id":[]}`))
	f.Add([]byte(`{"sql":"x","extra":{"a":[1,2,{"b":null}],"c":"\u0041"},"more":[true,false,-1.5e-3]}`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`null`))
	f.Add([]byte(`0 1`))
	f.Add([]byte(`[01]`))
	f.Add([]byte(`{"sql":"x",}`))
	f.Add([]byte(`[[[[[[[[[[]]]]]]]]]]`))
	f.Add([]byte("\x00"))
	f.Add([]byte("[\x00]"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/events", bytes.NewReader(body))
		events, isArray, err := DecodeEvents(req)
		wantEvents, wantArray, wantErr := decodeEventsJSON(bytes.NewReader(body))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: error %v, encoding/json says %v", body, err, wantErr)
		}
		if isArray != wantArray || !sameEvents(events, wantEvents) {
			t.Fatalf("%q: decoded %+v (array %v), encoding/json decodes %+v (array %v)",
				body, events, isArray, wantEvents, wantArray)
		}
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

// fuzzTime builds a timestamp from fuzzed parts: any instant, in UTC or
// a fixed zone of any offset (24 hours and beyond included).
func fuzzTime(sec, nsec int64, offset int32) time.Time {
	t := time.Unix(sec, nsec)
	if offset == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", int(offset)))
}

// sameMarshal fails t unless got/err are json.Marshal(v)'s bytes and
// error.
func sameMarshal(t *testing.T, v any, got []byte, err error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%+v: error %v, json.Marshal says %v", v, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n got %s\nwant %s", v, got, want)
	}
}

// The deliverer's batch body is json.Marshal's, byte for byte and error
// for error.
func FuzzEncodeEvents(f *testing.F) {
	f.Add("", "c1", "app", "10.0.0.1:5", "SELECT * FROM t WHERE a = 1", int64(1767225600), int64(0), int32(0), int64(1), int64(1))
	f.Add("t", "", "", "", "<script>&amp;</script> \u2028\u2029 \"q\" \\ \x00\x1f\x7f", int64(1767225600), int64(123456789), int32(19800), int64(0), int64(0))
	f.Add("\xff", "\xc3", "caf\xc3\xa9", "\xed\xa0\x80", "\ufffd\t\n\r\b\f", int64(-62135596800), int64(1), int32(-3600), int64(-1), int64(9))
	f.Add("", "", "u", "", "x", int64(253402300800), int64(0), int32(0), int64(0), int64(0)) // year 10000
	f.Add("", "", "u", "", "x", int64(-62167219201), int64(0), int32(0), int64(0), int64(0)) // year -1
	f.Add("", "", "u", "", "x", int64(0), int64(0), int32(24*3600), int64(0), int64(0))      // offset 24h
	f.Fuzz(func(t *testing.T, tenant, client, user, addr, sql string, sec, nsec int64, offset int32, seq, epoch int64) {
		ev := Event{Tenant: tenant, ClientID: client, User: user, Addr: addr, SQL: sql,
			Time: fuzzTime(sec, nsec, offset), Seq: seq, Epoch: epoch}
		for _, events := range [][]Event{{ev}, {ev, {SQL: sql}}, {{User: user}, ev}, {}, nil} {
			got, err := AppendEvents(nil, events)
			sameMarshal(t, events, got, err)
		}
	})
}

// The WAL's records are json.Marshal's bytes, so every log on disk
// stays readable and wal.bytes_per_event unchanged.
func FuzzEncodeWALRecord(f *testing.F) {
	f.Add("ev", "c1", "sess-1", 3, "app", "10.0.0.1:5", "SELECT 1", int64(1767225600), int64(0), int32(0), true, int64(1), int64(3))
	f.Add("seal", "", "", 0, "", "", "", int64(0), int64(0), int32(0), false, int64(0), int64(0))
	f.Add("rb", "<&>", "\u2028", -1, "\xff", "\xed\xa0\x80", "a\"b\\c\x00", int64(1767225600), int64(999999999), int32(-45000), true, int64(-2), int64(0))
	f.Add("ev", "c", "s", 1, "u", "a", "q", int64(253402300800), int64(0), int32(0), false, int64(0), int64(0)) // year 10000
	f.Add("ev", "c", "s", 1, "u", "a", "q", int64(0), int64(0), int32(0), true, int64(0), int64(0))
	f.Fuzz(func(t *testing.T, typ, client, sid string, pos int, user, addr, sql string, sec, nsec int64, offset int32, hasAt bool, epoch, seq int64) {
		r := walRecord{T: typ, Client: client, SID: sid, Pos: pos, User: user, Addr: addr, SQL: sql,
			TS: fuzzTime(sec, nsec, offset), Epoch: epoch, Seq: seq}
		if hasAt {
			// The arrival clock, shifted so it can be valid where TS is not
			// and the reverse.
			at := fuzzTime(-sec, nsec, -offset)
			r.At = &at
		}
		got, err := appendWALRecord([]byte("prefix"), &r)
		if err == nil {
			if !bytes.HasPrefix(got, []byte("prefix")) {
				t.Fatalf("appendWALRecord dropped what dst held: %q", got)
			}
			got = got[len("prefix"):]
		}
		sameMarshal(t, r, got, err)
	})
}
