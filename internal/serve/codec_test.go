package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/ucad/ucad/internal/jsonwire"
	"github.com/ucad/ucad/internal/wal"
)

// errCut stands for a body read that fails part way: the client went
// away, or the body ran past the cap.
var errCut = errors.New("read cut")

// A body whose read fails part way is answered as encoding/json's
// streaming decoder answers it at that point, for every cut point of a
// few bodies of each shape.
func TestDecodeEventsCutBody(t *testing.T) {
	bodies := []string{
		`[{"user":"u","sql":"SELECT 1","seq":12,"epoch":3}, {"sql":"x"}]   `,
		` {"user":"u","sql":"SELECT 1"} `,
		`{"sql":1}  `,
		`null `,
		`12345  `,
		`"abc" `,
		`true `,
		`[1] `,
	}
	var d jsonwire.Decoder
	for _, body := range bodies {
		for k := 0; k <= len(body); k++ {
			cut := []byte(body[:k])
			events, isArray, err := decodeEvents(&d, cut, true)
			wantEvents, wantArray, wantErr := decodeEventsJSON(io.MultiReader(bytes.NewReader(cut), iotest.ErrReader(errCut)))
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
				isArray != wantArray || !sameEvents(events, wantEvents) {
				t.Errorf("%q cut at %d: (%v, %v, %v), encoding/json: (%v, %v, %v)",
					body, k, events, isArray, err, wantEvents, wantArray, wantErr)
			}
		}
	}
}

// The 8 MiB cap answers as before: a value complete inside the cap with
// more bytes after it is "data after", one the cap cuts is invalid, and
// a body exactly at the cap is read whole.
func TestDecodeEventsBodyCap(t *testing.T) {
	event := `{"client_id":"c","user":"u","sql":"SELECT 1"}`
	n := (maxBody - 2) / (len(event) + 1)
	array := "[" + strings.Repeat(event+",", n-1) + event + "]"
	bodies := map[string]string{
		"array padded to the cap":      array + strings.Repeat(" ", maxBody-len(array)),
		"array padded past the cap":    array + strings.Repeat(" ", maxBody-len(array)+1),
		"array cut by the cap":         "[" + strings.Repeat(event+",", n+10) + event + "]",
		"scalar running to the cap":    strings.Repeat("1", maxBody) + " ",
		"scalar ending before the cap": "1" + strings.Repeat(" ", maxBody),
	}
	for name, body := range bodies {
		req := httptest.NewRequest("POST", "/v1/events", strings.NewReader(body))
		events, isArray, err := DecodeEvents(req)
		wantEvents, wantArray, wantErr := decodeEventsJSON(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), maxBody))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
			isArray != wantArray || !sameEvents(events, wantEvents) {
			t.Errorf("%s: %d events, array %v, error %v; encoding/json: %d events, array %v, error %v",
				name, len(events), isArray, err, len(wantEvents), wantArray, wantErr)
		}
	}
}

// Decoded strings are copies: reusing the body buffer for the next
// request leaves the events of the last one as they were.
func TestDecodeEventsCopiesStrings(t *testing.T) {
	var d jsonwire.Decoder
	body := []byte(`[{"tenant":"t","client_id":"c","user":"u","addr":"a","sql":"SELECT 1"}]`)
	events, _, err := decodeEvents(&d, body, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'x'
	}
	if ev := events[0]; ev.Tenant != "t" || ev.ClientID != "c" || ev.User != "u" || ev.Addr != "a" || ev.SQL != "SELECT 1" {
		t.Fatalf("strings alias the body: %+v", ev)
	}
}

// A request that declares the cap but sends a short body is not given
// the declared length up front: a client that stalls after its headers
// pins at most maxPooledBody, not maxBody.
func TestDecodeEventsDeclaredLengthNotPreallocated(t *testing.T) {
	body := `{"client_id":"c","user":"u","sql":"SELECT 1"}`
	req := httptest.NewRequest("POST", "/v1/events", strings.NewReader(body))
	req.ContentLength = maxBody
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events, _, err := DecodeEvents(req)
	runtime.ReadMemStats(&after)
	if err != nil || len(events) != 1 {
		t.Fatalf("%d events, error %v", len(events), err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > maxBody/2 {
		t.Fatalf("a %d-byte body declared as %d bytes allocated %d bytes", len(body), maxBody, n)
	}
}

// A WAL record grown past maxPooledBody (one huge statement) does not
// stay behind as its shard's encode buffer; an ordinary one does.
func TestWALBufferLetsGoOfHugeRecords(t *testing.T) {
	s, _ := durableService(t, testUCAD(t), t.TempDir(), newFakeClock().Now, nil)
	defer s.Stop()
	sh := s.shards[shardIndex("c", len(s.shards))]
	huge := "SELECT * FROM t WHERE x = '" + strings.Repeat("x", maxPooledBody) + "'"
	for _, c := range []struct {
		sql  string
		kept bool
	}{{"SELECT 1", true}, {huge, false}, {"SELECT 2", true}} {
		errs := make([]error, 1)
		s.IngestBatch([]Event{{ClientID: "c", User: "u", SQL: c.sql}}, errs)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		sh.mu.Lock()
		kept, size := sh.walBuf != nil, cap(sh.walBuf)
		sh.mu.Unlock()
		if kept != c.kept || size > maxPooledBody {
			t.Fatalf("after a %d-byte statement: buffer kept %v with cap %d, want kept %v", len(c.sql), kept, size, c.kept)
		}
	}
}

// walStreamEvents is a fixed event stream with every kind of string the
// encoder escapes (valid UTF-8 only, so a record decodes and re-encodes
// to itself), its own timestamps in several zones, and dedupe
// coordinates.
func walStreamEvents() []Event {
	t0 := time.Date(2026, 3, 1, 9, 30, 0, 123456789, time.FixedZone("", 5*3600+1800))
	sqls := []string{
		`SELECT * FROM videos WHERE vid = 1`,
		`SELECT "a\b" FROM <t> WHERE x = 'y' & z = 1`,
		"INSERT INTO log VALUES ('  \t\n\r\x01\x7f')",
		`SELECT * FROM café WHERE naïve = '日本語'`,
	}
	var evs []Event
	for i := 0; i < 40; i++ {
		ev := Event{
			ClientID: fmt.Sprintf("client-%d<&>", i%5),
			User:     fmt.Sprintf("user\"%d", i%3),
			Addr:     "10.0.0.1:5 ",
			SQL:      sqls[i%len(sqls)],
			Epoch:    int64(i%5 + 1),
			Seq:      int64(i/5 + 1),
		}
		if i%2 == 0 {
			ev.Time = t0.Add(time.Duration(i) * time.Second)
		}
		if i%7 == 0 {
			ev.Time = ev.Time.UTC()
		}
		evs = append(evs, ev)
	}
	return evs
}

// The WAL's bytes are json.Marshal's: every record a durable service
// writes for a fixed stream — events with and without their own
// timestamps, close-outs and the seal — is exactly json.Marshal of the
// record it decodes to.
func TestWALRecordsAreJSONMarshal(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	s, _ := durableService(t, testUCAD(t), dir, clock.Now, nil)
	evs := walStreamEvents()
	errs := make([]error, len(evs))
	s.IngestBatch(evs, errs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	clock.Advance(24 * time.Hour)
	if n := s.CloseIdleNow(); n != 5 {
		t.Fatalf("closed %d sessions, want 5", n)
	}
	// The live segments hold the events and the close-outs; Stop's final
	// snapshot prunes them, leaving segments that hold the seals.
	kinds := walRecordKinds(t, dir)
	s.Stop()
	for k, n := range walRecordKinds(t, dir) {
		kinds[k] += n
	}
	if kinds[recEvent] != len(evs) || kinds["at"] != len(evs)/2 || kinds[recClose] != 5 || kinds[recSeal] != len(s.shards) {
		t.Fatalf("record kinds %v: want %d events (%d with an arrival clock), 5 close-outs, %d seals",
			kinds, len(evs), len(evs)/2, len(s.shards))
	}
}

// walRecordKinds checks that every record in dir's WAL segments is
// json.Marshal of the record it decodes to, and counts them by type
// ("at": event records carrying an arrival clock).
func walRecordKinds(t *testing.T, dir string) map[string]int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-shard-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	kinds := map[string]int{}
	for _, seg := range segs {
		if _, err := wal.ReplaySegmentFile(seg, func(payload []byte) error {
			var r walRecord
			if err := json.Unmarshal(payload, &r); err != nil {
				return err
			}
			want, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if !bytes.Equal(payload, want) {
				return fmt.Errorf("record\n %s\nis not json.Marshal's\n %s", payload, want)
			}
			kinds[r.T]++
			if r.At != nil {
				kinds["at"]++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return kinds
}

// benchBody is a 64-event request body shaped like the feeder's.
func benchBody(tb testing.TB) []byte {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	evs := make([]Event, 64)
	for i := range evs {
		evs[i] = Event{ClientID: fmt.Sprintf("10.0.%d.%d:5%d/%d", i%7, i%13, i%10, i%17), User: fmt.Sprintf("app%d", i%4),
			Addr: fmt.Sprintf("10.0.%d.%d:5%d", i%7, i%13, i%10), SQL: normalStatement(i),
			Time: t0.Add(time.Duration(i) * time.Millisecond), Epoch: int64(i%17 + 1), Seq: int64(i/17 + 1)}
	}
	b, err := json.Marshal(evs)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// BenchmarkDecodeEvents decodes a 64-event body through DecodeEvents
// (ns/op, B/op and allocs/op are per body).
func BenchmarkDecodeEvents(b *testing.B) {
	body := benchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/events", bytes.NewReader(body))
		if _, _, err := DecodeEvents(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeEvents encodes the same 64 events as the deliverer
// does (per body).
func BenchmarkEncodeEvents(b *testing.B) {
	var evs []Event
	if err := json.Unmarshal(benchBody(b), &evs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendEvents(nil, evs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeWALRecord encodes one event record as appendWAL does,
// into a reused buffer.
func BenchmarkEncodeWALRecord(b *testing.B) {
	ts := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := ts.Add(time.Millisecond)
	r := walRecord{T: recEvent, Client: "10.0.3.7:53/9", SID: "s-123", Pos: 7, User: "app1", Addr: "10.0.3.7:53",
		SQL: normalStatement(5), TS: ts, At: &at, Epoch: 4, Seq: 7}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendWALRecord(buf[:0], &r); err != nil {
			b.Fatal(err)
		}
	}
}
