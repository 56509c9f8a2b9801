package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/workload"
)

// evt is one generated event in compact, pointer-free form; the
// serve.Event handed to the program is assembled from it (and its
// session) without allocating. Pointer-free matters: a run holds up to a
// million events, and a heap that size full of string headers would have
// the collector marking the generator's inputs for tens of milliseconds
// at a time in the middle of the latencies being measured.
type evt struct {
	sess   int32  // index into callerInput.sessions
	pos    int32  // 0-based position within its session
	off, n uint32 // statement text: callerInput.sql[off:off+n]
}

type sessInfo struct {
	client, user, addr string
	events             []int32 // event index by position
}

// unit is one scheduled send: events [lo,hi) of its caller.
type unit struct{ lo, hi int }

// callerInput is everything one caller (= one tenant) sends in a run,
// generated from --seed during set-up.
type callerInput struct {
	tenant   string
	sessions []sessInfo
	byClient map[string]int32 // client id -> session index
	events   []evt
	sql      string // every statement, back to back
	steady   []unit
	sat      []unit
	// bodies[u] is unit u's pre-encoded POST body (HTTP front), indexed
	// steady units first, then saturate units.
	bodies [][]byte
	// lines[u] is unit u's pre-encoded JSONL chunk (feed front).
	lines [][]byte
	// due[i] is when event i was due, in ns since the run's time base
	// (steady phase only; zero elsewhere).
	due []int64
}

func (c *callerInput) event(i int) serve.Event {
	e := &c.events[i]
	s := &c.sessions[e.sess]
	return serve.Event{Tenant: c.tenant, ClientID: s.client, User: s.user, Addr: s.addr, SQL: c.stmt(e)}
}

func (c *callerInput) stmt(e *evt) string { return c.sql[e.off : e.off+e.n] }

func tenantID(i int) string { return fmt.Sprintf("t%d", i) }

// anomalyRate is the per-session chance of an injected attack (the
// loadgen default): enough that the anomalous branches run, rare enough
// that traffic stays mostly normal.
const anomalyRate = 0.05

// genInputs draws each caller's event stream from workload.MultiGen and
// cuts it into units. The same seed gives the same inputs.
func genInputs(sp spec, z sizes, seed int64) []*callerInput {
	steadyPer := z.steadyEvents / nCallers
	satPer := z.satEvents / nCallers
	out := make([]*callerInput, nCallers)
	base := time.Date(2022, 6, 12, 0, 0, 0, 0, time.UTC)
	for c := range out {
		id := tenantID(c)
		gen := workload.NewMultiGen(seed*7919+int64(c), workload.TenantStream{
			Tenant:      id,
			Source:      workload.NewScenarioSource(sp.grammar(), seed*104729+int64(c), anomalyRate),
			Concurrency: 4,
		})
		in := &callerInput{tenant: id}
		n := steadyPer + satPer
		in.events = make([]evt, n)
		in.due = make([]int64, n)
		byClient := make(map[string]int32)
		in.byClient = byClient
		var sql strings.Builder
		for i := 0; i < n; i++ {
			te := gen.Next()
			si, ok := byClient[te.ClientID]
			if !ok {
				si = int32(len(in.sessions))
				byClient[te.ClientID] = si
				in.sessions = append(in.sessions, sessInfo{client: te.ClientID, user: te.User, addr: te.Addr})
			}
			s := &in.sessions[si]
			in.events[i] = evt{sess: si, pos: int32(len(s.events)), off: uint32(sql.Len()), n: uint32(len(te.SQL))}
			sql.WriteString(te.SQL)
			s.events = append(s.events, int32(i))
		}
		in.sql = sql.String()
		for lo := 0; lo < steadyPer; lo += sp.unitEvents {
			in.steady = append(in.steady, unit{lo, lo + sp.unitEvents})
		}
		for lo := steadyPer; lo < n; lo += sp.unitEvents {
			in.sat = append(in.sat, unit{lo, lo + sp.unitEvents})
		}
		switch sp.front {
		case frontHTTP:
			for _, u := range append(append([]unit(nil), in.steady...), in.sat...) {
				in.bodies = append(in.bodies, encodeBody(in, u))
			}
		case frontFeed:
			// Audit-log timestamps follow the steady schedule, so event
			// time and arrival order agree and no idle gap splits a session.
			gap := time.Duration(float64(time.Second) / (sp.steadyRate / nCallers))
			for _, u := range append(append([]unit(nil), in.steady...), in.sat...) {
				in.lines = append(in.lines, encodeLines(in, u, base, gap))
			}
		}
		out[c] = in
	}
	return out
}

// encodeBody renders a unit as the JSON array a client posts to
// /v1/events (the encoding feed.HTTPDeliverer produces).
func encodeBody(in *callerInput, u unit) []byte {
	evs := make([]serve.Event, 0, u.hi-u.lo)
	for i := u.lo; i < u.hi; i++ {
		evs = append(evs, in.event(i))
	}
	b, err := json.Marshal(evs)
	if err != nil {
		panic(err) // strings and zero times always encode
	}
	return b
}

// encodeLines renders a unit as audit-log lines in the session.Operation
// wire format ucad-feed tails.
func encodeLines(in *callerInput, u unit, base time.Time, gap time.Duration) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := u.lo; i < u.hi; i++ {
		e := &in.events[i]
		s := &in.sessions[e.sess]
		op := session.Operation{Time: base.Add(time.Duration(i) * gap), User: s.user, Addr: s.addr, SessionID: s.client, SQL: in.stmt(e)}
		if err := enc.Encode(op); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}
