// Package feed is the streaming SQL front door: it closes the loop from
// a raw DBMS audit trail to alerts. A Source yields executed operations
// (the JSONL/CSV file tailer, which follows log rotation), a Sessionizer
// groups them into per-connection sessions with an event-time idle
// cut-off and stamps each event with its 1-based sequence number and
// session epoch, and a Deliverer hands batches to the serving layer: an
// HTTP client with retry/backoff and tenant routing against a remote
// ucad-serve.
//
// Delivery is at-least-once: the Feeder commits its resume state (file
// position plus the sessionizer's sequence counters and epoch) only
// after a batch is acknowledged, as one fsynced record of what the
// batch changed in a wal.Store, so a crash between read and commit
// replays the tail. The serving layer deduplicates
// replayed events by their (epoch, sequence) coordinates
// (serve.Event.Epoch, serve.Event.Seq), which turns at-least-once
// delivery into exactly-once sessions — the invariant the kill -9
// end-to-end test in cmd/ucad-feed pins down.
//
// Instrumentation is per source: Metrics.Source declares the
// ucad_feed_* families on first use and resolves the source's children
// once, and the nil SourceMetrics drops every observation.
package feed

import (
	"context"

	"github.com/ucad/ucad/internal/session"
)

// Source yields executed operations in audit-log order.
type Source interface {
	// Next returns the next operation. It blocks until one is available,
	// the source is exhausted (io.EOF for finite sources), or ctx is
	// done (ctx.Err()). A tailer never returns io.EOF — it waits for the
	// writer.
	Next(ctx context.Context) (session.Operation, error)
	// Close releases the source.
	Close() error
}

// positioned is implemented by sources with a durable resume position
// (the file tailer). The Feeder persists the position in its checkpoint
// and seeds it back on restart.
type positioned interface {
	// Pos returns the source position after the last record Next
	// returned.
	Pos() FilePos
	// SeekTo resumes the source at a previously committed position.
	// It must be called before the first Next.
	SeekTo(FilePos) error
}

// FilePos identifies a byte position within a possibly-rotated log
// file: the inode pins the file identity so a rotation between commit
// and restart is detected instead of silently re-reading (or skipping)
// the new file.
type FilePos struct {
	Ino    uint64 `json:"ino"`
	Offset int64  `json:"offset"`
}
