package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// DecodeEvents accepts either a single JSON event object or an array,
// reporting which shape arrived so the response can mirror it. The body
// is exactly one JSON value: anything but whitespace after it is an
// error, not a second submission to drop unanswered.
func DecodeEvents(r *http.Request) (events []Event, isArray bool, err error) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, false, errors.New("invalid JSON body")
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, false, errors.New("invalid JSON body: data after the first value")
	}
	for _, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			var events []Event
			if err := json.Unmarshal(raw, &events); err != nil {
				return nil, true, errors.New("invalid event array")
			}
			return events, true, nil
		default:
			var ev Event
			if err := json.Unmarshal(raw, &ev); err != nil {
				return nil, false, errors.New("invalid event object")
			}
			return []Event{ev}, false, nil
		}
	}
	return nil, false, errors.New("empty body")
}
