package serve

import (
	"bytes"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"github.com/ucad/ucad/internal/jsonwire"
)

// The per-event JSON of the ingest path — the request body and the WAL
// records — goes through internal/jsonwire, which accepts and writes
// exactly what encoding/json does for these types (FuzzDecodeEvents,
// FuzzEncodeEvents and FuzzEncodeWALRecord hold it to that).

// maxBody caps one /v1/events request body.
const maxBody = 8 << 20

var (
	errInvalidBody  = errors.New("invalid JSON body")
	errDataAfter    = errors.New("invalid JSON body: data after the first value")
	errInvalidArray = errors.New("invalid event array")
	errInvalidEvent = errors.New("invalid event object")
)

// eventFields are Event's JSON member names, in field order.
var eventFields = jsonwire.NewFields("tenant", "client_id", "user", "addr", "sql", "ts", "seq", "epoch")

// bodyBuf is the reusable read buffer of one request; a buffer grown
// past maxPooledBody is let go rather than pinned by the pool.
type bodyBuf struct {
	b bytes.Buffer
	d jsonwire.Decoder
}

const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// DecodeEvents accepts either a single JSON event object or an array,
// reporting which shape arrived so the response can mirror it. The body
// is exactly one JSON value: anything but whitespace after it is an
// error, not a second submission to drop unanswered.
func DecodeEvents(r *http.Request) (events []Event, isArray bool, err error) {
	bb := bodyPool.Get().(*bodyBuf)
	defer func() {
		if bb.b.Cap() > maxPooledBody {
			bb.b = bytes.Buffer{}
		}
		bodyPool.Put(bb)
	}()
	bb.b.Reset()
	// Room for the declared length and the read that meets EOF, but no
	// more than maxPooledBody ahead of what has arrived: a client that
	// declares 8 MiB and stalls pins no more than that.
	if r.ContentLength > 0 {
		bb.b.Grow(int(min(r.ContentLength+bytes.MinRead, maxPooledBody)))
	}
	_, rerr := bb.b.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBody))
	return decodeEvents(&bb.d, bb.b.Bytes(), rerr != nil)
}

// decodeEvents decodes one request body. cut reports that reading it
// failed after these bytes (the body is over the cap, or the client
// went away); the answer is then the one a streaming decoder gives at
// that point: a value still incomplete there is an invalid body, a
// complete one has "data after" it.
func decodeEvents(d *jsonwire.Decoder, body []byte, cut bool) ([]Event, bool, error) {
	d.Reset(body)
	first := d.Peek()
	isArray := first == '['
	var events []Event
	if isArray {
		d.Array()
		events = make([]Event, 0, min(bytes.Count(body, []byte{'{'}), 1024))
		for n := 0; d.Elem(n); n++ {
			events = append(events, Event{})
			decodeEvent(d, &events[n])
		}
	} else {
		events = make([]Event, 1)
		decodeEvent(d, &events[0])
	}
	err := d.Err()
	switch {
	case err == jsonwire.ErrSyntax:
		return nil, false, errInvalidBody
	case !d.End():
		return nil, false, errDataAfter
	case cut && first != '[' && first != '{' && len(bytes.TrimRight(body, " \t\r\n")) == len(body):
		// A scalar that runs to the cut point may continue past it.
		return nil, false, errInvalidBody
	case cut:
		return nil, false, errDataAfter
	case err != nil && isArray:
		return nil, true, errInvalidArray
	case err != nil:
		return nil, false, errInvalidEvent
	}
	return events, isArray, nil
}

func decodeEvent(d *jsonwire.Decoder, ev *Event) {
	if !d.Object() {
		return
	}
	for n := 0; ; n++ {
		key, ok := d.Member(n)
		if !ok {
			return
		}
		switch eventFields.Index(key) {
		case 0:
			d.String(&ev.Tenant)
		case 1:
			d.String(&ev.ClientID)
		case 2:
			d.String(&ev.User)
		case 3:
			d.String(&ev.Addr)
		case 4:
			d.String(&ev.SQL)
		case 5:
			d.Time(&ev.Time)
		case 6:
			d.Int64(&ev.Seq)
		case 7:
			d.Int64(&ev.Epoch)
		default:
			d.Skip()
		}
	}
}

// AppendEvents appends events as json.Marshal writes the slice — a nil
// slice as null — and fails where it fails: on a timestamp
// time.Time.MarshalJSON refuses.
func AppendEvents(dst []byte, events []Event) ([]byte, error) {
	if events == nil {
		return append(dst, "null"...), nil
	}
	size := 2
	for i := range events {
		e := &events[i]
		size += len(e.Tenant) + len(e.ClientID) + len(e.User) + len(e.Addr) + len(e.SQL) + 128
	}
	dst = append(slices.Grow(dst, size), '[')
	for i := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendEvent(dst, &events[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendEvent(dst []byte, e *Event) ([]byte, error) {
	dst = append(dst, '{')
	if e.Tenant != "" {
		dst = jsonwire.AppendString(append(dst, `"tenant":`...), e.Tenant)
		dst = append(dst, ',')
	}
	if e.ClientID != "" {
		dst = jsonwire.AppendString(append(dst, `"client_id":`...), e.ClientID)
		dst = append(dst, ',')
	}
	dst = jsonwire.AppendString(append(dst, `"user":`...), e.User)
	if e.Addr != "" {
		dst = jsonwire.AppendString(append(dst, `,"addr":`...), e.Addr)
	}
	dst = jsonwire.AppendString(append(dst, `,"sql":`...), e.SQL)
	dst, err := jsonwire.AppendTime(append(dst, `,"ts":`...), e.Time, "time.Time")
	if err != nil {
		return dst, err
	}
	if e.Seq != 0 {
		dst = strconv.AppendInt(append(dst, `,"seq":`...), e.Seq, 10)
	}
	if e.Epoch != 0 {
		dst = strconv.AppendInt(append(dst, `,"epoch":`...), e.Epoch, 10)
	}
	return append(dst, '}'), nil
}

// appendWALRecord appends r as json.Marshal writes it: the bytes every
// WAL on disk holds, so replay (which decodes with encoding/json) and
// wal.bytes_per_event are unchanged.
func appendWALRecord(dst []byte, r *walRecord) ([]byte, error) {
	dst = jsonwire.AppendString(append(dst, `{"t":`...), r.T)
	if r.Client != "" {
		dst = jsonwire.AppendString(append(dst, `,"c":`...), r.Client)
	}
	if r.SID != "" {
		dst = jsonwire.AppendString(append(dst, `,"s":`...), r.SID)
	}
	if r.Pos != 0 {
		dst = strconv.AppendInt(append(dst, `,"p":`...), int64(r.Pos), 10)
	}
	if r.User != "" {
		dst = jsonwire.AppendString(append(dst, `,"u":`...), r.User)
	}
	if r.Addr != "" {
		dst = jsonwire.AppendString(append(dst, `,"a":`...), r.Addr)
	}
	if r.SQL != "" {
		dst = jsonwire.AppendString(append(dst, `,"q":`...), r.SQL)
	}
	dst, err := jsonwire.AppendTime(append(dst, `,"ts":`...), r.TS, "time.Time")
	if err != nil {
		return dst, err
	}
	if r.At != nil {
		if dst, err = jsonwire.AppendTime(append(dst, `,"at":`...), *r.At, "*time.Time"); err != nil {
			return dst, err
		}
	}
	if r.Epoch != 0 {
		dst = strconv.AppendInt(append(dst, `,"e":`...), r.Epoch, 10)
	}
	if r.Seq != 0 {
		dst = strconv.AppendInt(append(dst, `,"n":`...), r.Seq, 10)
	}
	return append(dst, '}'), nil
}
