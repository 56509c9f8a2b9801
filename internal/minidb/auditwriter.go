package minidb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/wal"
)

// AuditWriter appends executed operations to a JSON-lines audit file —
// the on-disk log a streaming tailer (internal/feed) follows. Records
// are the session.Operation wire format, one per line, append-only;
// durability reuses the WAL sync policies: SyncAlways fsyncs every
// record before Append returns, SyncInterval flushes on a background
// timer, SyncNever leaves it to the page cache.
//
// The writer is safe for concurrent use and is attached to a DB with
// SetAuditSink; the in-memory audit API (AuditLog/ResetAudit) is
// unaffected.
type AuditWriter struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	dirty  bool
	closed bool

	policy wal.SyncPolicy
	stop   chan struct{}
	done   chan struct{}
}

// NewAuditWriter opens (creating or appending to) the JSONL audit file
// at path. interval is the flush period under SyncInterval (0 means
// 100ms).
func NewAuditWriter(path string, policy wal.SyncPolicy, interval time.Duration) (*AuditWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("minidb: open audit file: %w", err)
	}
	a := &AuditWriter{f: f, w: bufio.NewWriter(f), policy: policy}
	if policy == wal.SyncInterval {
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		a.stop = make(chan struct{})
		a.done = make(chan struct{})
		go a.syncLoop(interval)
	}
	return a, nil
}

// Append writes one operation as a JSON line. Under SyncAlways the
// record is on stable storage when Append returns.
func (a *AuditWriter) Append(op session.Operation) error {
	b, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("minidb: encode audit record: %w", err)
	}
	b = append(b, '\n')
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return fmt.Errorf("minidb: audit writer closed")
	}
	if _, err := a.w.Write(b); err != nil {
		return fmt.Errorf("minidb: append audit record: %w", err)
	}
	a.dirty = true
	if a.policy == wal.SyncAlways {
		return a.syncLocked()
	}
	return nil
}

// Sync flushes buffered records and fsyncs the file.
func (a *AuditWriter) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	return a.syncLocked()
}

func (a *AuditWriter) syncLocked() error {
	if !a.dirty {
		return nil
	}
	if err := a.w.Flush(); err != nil {
		return fmt.Errorf("minidb: flush audit file: %w", err)
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("minidb: fsync audit file: %w", err)
	}
	a.dirty = false
	return nil
}

func (a *AuditWriter) syncLoop(every time.Duration) {
	defer close(a.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.Sync()
		case <-a.stop:
			return
		}
	}
}

// Close flushes, fsyncs and closes the file. Further Appends fail.
func (a *AuditWriter) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	err := a.syncLocked()
	a.closed = true
	a.mu.Unlock()
	if a.stop != nil {
		close(a.stop)
		<-a.done
	}
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	return err
}
