// Package serve is the online half of the paper's deployment story
// (§5.2–§5.3, Figure 5) as a running system: a stream of raw
// (client, SQL, timestamp) events is assembled into per-client
// sessions, every operation is scored incrementally against the trained
// Trans-DAS model by a bounded worker pool, and flagged operations
// surface as alerts for expert review — all while sessions are still
// open, not only after they end.
//
// The package is layered as
//
//	Assembler  — per-client open-session state with idle-timeout
//	             close-out; not safe for concurrent use
//	shard      — one partition of the ingest plane, chosen by client
//	             hash: an Assembler and its WAL stream behind one mutex,
//	             under which each event is tokenized, appended and logged
//	Engine     — micro-batched concurrent scoring with backpressure,
//	             one queue per shard
//	Service    — wires the shards and the Engine to the serving model
//	             (one atomic record, never changed in place) and runs
//	             Figure 5's loop: close-out verdicts, the verified pool,
//	             expert feedback, fine-tune rounds (each trains a copy)
//	             and model installs (a barrier over every shard mutex)
//
// Each Service exports its instrumentation through a per-tenant view
// (Metrics) of a MetricsHub: one shared registry whose families are
// declared where a tenant's children are resolved, so a family costs
// one declaration and RemoveTenant drops every series of a tenant.
//
// It is a library: the HTTP/JSON front over it is
// internal/tenant's Registry.Handler, the only one.
package serve

import (
	"errors"
	"time"
)

// Event is one raw audit-log record as it arrives from a database
// frontend: which client issued which statement when.
type Event struct {
	// Tenant routes the event to a named tenant's pipeline in
	// multi-tenant deployments (internal/tenant); empty means the
	// deployment's default tenant. A single-tenant Service ignores it.
	Tenant string `json:"tenant,omitempty"`
	// ClientID identifies the connection/session stream; events sharing
	// a ClientID are assembled into one session. Empty falls back to
	// user@addr.
	ClientID string `json:"client_id,omitempty"`
	// User is the authenticated database account.
	User string `json:"user"`
	// Addr is the client network address.
	Addr string `json:"addr,omitempty"`
	// SQL is the raw statement text.
	SQL string `json:"sql"`
	// Time is the statement execution timestamp; zero means "now".
	Time time.Time `json:"ts,omitempty"`
	// Seq, when positive, is the 1-based position of this statement
	// within its session as assigned by the sender. It makes redelivery
	// safe: an event whose position the open session already holds is
	// acknowledged without being appended or scored again, so an
	// at-least-once feeder (internal/feed replaying from an offset
	// checkpoint after a crash) yields exactly-once sessions. Zero means
	// "no sequence" and disables deduplication for the event. A positive
	// Seq requires a positive Epoch (Ingest rejects the event otherwise).
	Seq int64 `json:"seq,omitempty"`
	// Epoch, when positive, identifies the sender-side session
	// generation that assigned Seq: a feeder sessionizing by event time
	// bumps the epoch (monotonically, persisted in its checkpoint) each
	// time a client's idle gap starts a new session, so Seq restarts at 1
	// under a fresh epoch. The assembler fences its deduplication on the
	// epoch — a replayed (epoch, seq) at or below the open session's
	// high-water mark is a duplicate, while a higher epoch is genuinely
	// new traffic even though its Seq restarted — which keeps a wall-clock
	// server from swallowing a backlogged feeder's post-gap sessions.
	Epoch int64 `json:"epoch,omitempty"`
}

// Client returns the assembly key for the event.
func (e Event) Client() string {
	if e.ClientID != "" {
		return e.ClientID
	}
	return e.User + "@" + e.Addr
}

// Errors surfaced to API callers (internal/tenant maps them to HTTP
// statuses and envelope codes).
var (
	ErrBusy        = errors.New("serve: scoring queue full")
	ErrInvalid     = errors.New("serve: invalid event (sql is required; seq requires epoch)")
	ErrStopped     = errors.New("serve: service stopped")
	ErrSessionOpen = errors.New("serve: session still open")
	ErrNoAlert     = errors.New("serve: no such alert")
	// ErrNotReady rejects events on a durability-configured Service
	// that has not gone live: a primary before Restore has opened the
	// write-ahead log, or a warm standby awaiting promotion. An accepted
	// event must never bypass the log.
	ErrNotReady = errors.New("serve: durable service not live yet (restore pending, or a standby awaiting promotion)")
)
