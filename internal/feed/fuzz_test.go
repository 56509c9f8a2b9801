package feed

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/wal"
)

// The audit log is untrusted input: its line parsers must never panic,
// and a line they accept must carry its statement through re-encoding
// unchanged.

// parseJSONLineJSON is ParseJSONLine as encoding/json answers it, the
// contract the parser is held to.
func parseJSONLineJSON(line []byte) (session.Operation, error) {
	var op session.Operation
	if err := json.Unmarshal(line, &op); err != nil {
		return op, err
	}
	if op.SQL == "" {
		return op, fmt.Errorf("missing sql")
	}
	return op, nil
}

// FuzzParseJSONLine also holds the parser to encoding/json: it accepts
// exactly the lines json.Unmarshal accepts into a session.Operation
// (with a statement), and yields the same record — the timestamp the
// same instant in the same zone offset.
func FuzzParseJSONLine(f *testing.F) {
	f.Add([]byte(`{"ts":"2026-01-01T00:00:01Z","user":"app","addr":"10.0.0.1:55","session_id":"7","sql":"SELECT * FROM t WHERE a = 1"}`))
	f.Add([]byte(`{"user":"app","sql":"SELECT \"x\" FROM ét\\u"}`))
	f.Add([]byte(`{"sql":""}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`{"ts":"yesterday","sql":"SELECT 1"}`))
	f.Add([]byte(`{"SQL":"a","ſql":"b","User":"u","Session_ID":"s","ADDR":"x","Ts":null,"Key":5}`))
	f.Add([]byte(`{"sql":"a","sql":"b","user":"u","user":null,"ts":"2026-01-01T00:00:00Z","ts":null}`))
	f.Add([]byte(`{"sql":"x","ts":1e3,"user":-0}`))
	f.Add([]byte(`{"sql":"x","session_id":9223372036854775808}`))
	f.Add([]byte(`{"sql":"\ud800 \udc00 \ud83d\ude00 \ud800\u0041","user":"\u00e9\u0000"}`))
	f.Add([]byte("{\"sql\":\"\xff\xfe caf\xc3\xa9 \xed\xa0\x80\",\"addr\":\"a\xc3\"}"))
	f.Add([]byte(`{"sql":"<a>&amp; \u2028\u2029"}`))
	f.Add([]byte(`{"sql":"x","ts":"10000-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"sql":"x","ts":"2026-01-01T00:00:00.5-07:00"}`))
	f.Add([]byte(`{"sql":"x","extra":{"a":[1,{"b":null}]},"more":[true,false,-1.5e-3]} `))
	f.Add([]byte(`{"sql":"x"} {"sql":"y"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"sql":"x"}]`))
	f.Fuzz(func(t *testing.T, line []byte) {
		op, err := ParseJSONLine(line)
		want, wantErr := parseJSONLineJSON(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: error %v, encoding/json says %v", line, err, wantErr)
		}
		if err != nil {
			return
		}
		_, off := op.Time.Zone()
		_, wantOff := want.Time.Zone()
		if !op.Time.Equal(want.Time) || off != wantOff {
			t.Fatalf("%q: time %v, encoding/json decodes %v", line, op.Time, want.Time)
		}
		op.Time, want.Time = time.Time{}, time.Time{}
		if op != want {
			t.Fatalf("%q: decoded %+v, encoding/json decodes %+v", line, op, want)
		}
		if op.SQL == "" {
			t.Fatalf("accepted %q with no statement", line)
		}
		// The timestamp is not the property here (MarshalJSON refuses
		// years past 9999 that the parser's layout can still produce).
		op.Time = time.Time{}
		again, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSONLine(again)
		if err != nil {
			t.Fatalf("re-encoded %q does not parse: %v", again, err)
		}
		if back.SQL != op.SQL || back.User != op.User || back.Addr != op.Addr || back.SessionID != op.SessionID {
			t.Fatalf("round trip of %q: %+v, want %+v", line, back, op)
		}
	})
}

func FuzzParseCSVLine(f *testing.F) {
	f.Add([]byte(`2026-08-07T12:00:00Z,alice,10.0.0.7,conn-1,"SELECT * FROM t WHERE a = 1, b = 2"`))
	f.Add([]byte(`,u,a,s,SELECT 1`))
	f.Add([]byte(`,u,a,s,"SELECT ""q"" FROM t"`))
	f.Add([]byte(`,u,a,s`))
	f.Add([]byte("bad-ts,u,a,s,SELECT 1"))
	f.Fuzz(func(t *testing.T, line []byte) {
		op, err := ParseCSVLine(line)
		if err != nil {
			return
		}
		if op.SQL == "" {
			t.Fatalf("accepted %q with no statement", line)
		}
		fields := []string{"", op.User, op.Addr, op.SessionID, op.SQL}
		for _, fld := range fields {
			if strings.ContainsRune(fld, '\r') {
				return // encoding/csv folds a quoted "\r\n" to "\n": CR never round-trips
			}
		}
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.Write(fields); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		back, err := ParseCSVLine(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded %q does not parse: %v", buf.Bytes(), err)
		}
		if back.SQL != op.SQL || back.User != op.User || back.Addr != op.Addr || back.SessionID != op.SessionID {
			t.Fatalf("round trip of %q: %+v, want %+v", line, back, op)
		}
	})
}

// FuzzLoadCheckpoint puts arbitrary bytes where the last delta segment
// of a real checkpoint store goes — the file a crash tears. Loading
// must never panic and must equal the snapshot with exactly the whole
// records of that segment folded in (an error only when a whole record
// is not a checkpoint).
func FuzzLoadCheckpoint(f *testing.F) {
	base := filepath.Join(f.TempDir(), "feed.ckpt")
	fd, src := commitFeeder(f, base, 0)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		stampAt(fd, fmt.Sprintf("c%d", i), t0)
	}
	forceSnapshot(fd)
	for i := 1; i <= 4; i++ {
		stampAt(fd, fmt.Sprintf("c%d", i), t0.Add(time.Duration(i)*time.Second))
		src.pos.Offset = int64(100 * i)
		if err := fd.commit(); err != nil {
			f.Fatal(err)
		}
	}
	fd.closeStore()
	segPath := activeSegment(f, base)
	segName := filepath.Base(segPath)
	seg, err := os.ReadFile(segPath)
	if err != nil {
		f.Fatal(err)
	}
	snaps := snapshotSeqs(f, base)
	if len(snaps) != 1 || len(seg) == 0 {
		f.Fatalf("seed store: snapshots %v, %d delta bytes", snaps, len(seg))
	}
	snap, err := wal.ReadStateFile(filepath.Join(base, wal.SnapshotFileName("snap-", snaps[0])))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(seg[:len(seg)/2])
	flipped := bytes.Clone(seg)
	flipped[len(flipped)-5] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(append(bytes.Clone(seg), "trailing debris"...))

	// LoadCheckpoint only reads, so one working copy serves every input.
	dir := filepath.Join(f.TempDir(), "fuzz.ckpt")
	copyDir(f, base, dir)
	f.Fuzz(func(t *testing.T, tail []byte) {
		if err := os.WriteFile(filepath.Join(dir, segName), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := LoadCheckpoint(dir)

		var want Checkpoint
		if err := json.Unmarshal(snap, &want); err != nil {
			t.Fatal(err)
		}
		var bad error
		wal.ReplaySegmentFile(filepath.Join(dir, segName), func(rec []byte) error {
			var d Checkpoint
			if bad = json.Unmarshal(rec, &d); bad != nil {
				return bad
			}
			want.apply(d)
			return nil
		})
		switch {
		case bad != nil:
			if err == nil {
				t.Fatalf("a whole record that is not a checkpoint (%v) loaded as %+v", bad, got)
			}
		case err != nil || !ok:
			t.Fatalf("load: ok=%v err=%v", ok, err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("loaded %+v, want the whole-record prefix %+v", got, want)
		}
	})
}
