package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Log is an append-only segmented write-ahead log. Segments are files
// named <prefix><seq>.log (Options.SegmentPrefix, default "wal-") with
// monotonically increasing sequence numbers;
// appends go to the highest segment and rotate to a fresh one past
// Options.SegmentBytes. Open truncates a torn tail left by a crash, so
// an opened log always ends on a record boundary. Log is safe for
// concurrent use.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	f       *os.File
	seq     uint64
	size    int64
	dirty   bool
	closed  bool
	scratch []byte

	// tornAtOpen records whether Open found and truncated a torn tail —
	// the evidence of a crash mid-append that recovery reports.
	tornAtOpen bool

	stopSync chan struct{}
	syncDone chan struct{}
}

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

func segmentName(prefix string, seq uint64) string { return fmt.Sprintf("%s%016d.log", prefix, seq) }

// parseSeq extracts the sequence number from a <prefix><seq><suffix>
// filename, reporting ok=false for files that do not match. A numeric
// parse failure rejects the file, so the default "wal-" prefix never
// claims a shard stream's "wal-shard-NN-…" segments.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) ||
		len(name) <= len(prefix)+len(suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return seq, err == nil && seq > 0
}

// listSeqs returns, in ascending order, the sequence numbers of dir's
// <prefix><seq><suffix> files: one stream's segments (".log") or
// snapshots (".snap").
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// listSegments returns the directory's segment sequence numbers for one
// stream prefix in ascending order.
func listSegments(dir, prefix string) ([]uint64, error) { return listSeqs(dir, prefix, ".log") }

// scanValidPrefix reads a segment and returns the byte offset where its
// valid record prefix ends (the start of the first torn record, or the
// file size when every record checks out).
func scanValidPrefix(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	off := 0
	for off < len(b) {
		_, n, err := decodeRecord(b[off:])
		if err != nil {
			break
		}
		off += n
	}
	return int64(off), nil
}

// Open opens (creating if needed) the log in dir. If the highest
// segment ends in a torn record — the signature of a crash mid-append —
// the tail is truncated back to the last whole record; earlier segments
// are never touched (they were sealed with a final fsync).
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := listSegments(dir, opt.SegmentPrefix)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt}
	if len(seqs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		seq := seqs[len(seqs)-1]
		path := filepath.Join(dir, segmentName(opt.SegmentPrefix, seq))
		valid, err := scanValidPrefix(path)
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(path); err == nil && fi.Size() > valid {
			l.tornAtOpen = true
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(valid, 0); err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.seq, l.size = f, seq, valid
	}
	if opt.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop(syncInterval)
	}
	return l, nil
}

// openSegment creates and switches to segment seq (caller holds mu or
// is constructing the log).
func (l *Log) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.opt.SegmentPrefix, seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	// Make the new segment's directory entry durable before anything is
	// appended to it, so recovery after a crash sees the same segment
	// chain the writer did.
	if l.opt.Sync != SyncNever {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f, l.seq, l.size, l.dirty = f, seq, 0, false
	return nil
}

func (l *Log) syncLoop(every time.Duration) {
	defer close(l.syncDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				l.syncLocked()
			}
			l.mu.Unlock()
		case <-l.stopSync:
			return
		}
	}
}

// Append is AppendDeferred followed by Commit under one hold of the log
// mutex: the payload is durable per Options.Sync once Append returns
// nil, at one fsync per call under SyncAlways.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(payload); err != nil {
		return err
	}
	return l.commitLocked()
}

// AppendDeferred frames payload and writes it to the active segment,
// rotating past the segment cap, without forcing it to stable storage:
// the record is durable under SyncAlways only once a later Commit (or
// anything that seals the segment: rotation, Rotate, SkipTo, Close)
// returns nil. It lets a caller that acknowledges a group of records
// at once pay one fsync for the group. A crash before that Commit
// leaves a whole-record prefix of the group, possibly with a torn tail.
func (l *Log) AppendDeferred(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(payload)
}

// Commit is the durability point of the records written so far: under
// SyncAlways it fsyncs the active segment if anything was written since
// the last fsync — so a Commit that another caller's fsync (or a
// rotation) already covered is free — and under SyncInterval/SyncNever
// it does nothing, those policies never promising durability at ack.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *Log) appendLocked(payload []byte) error {
	if len(payload) > MaxRecordSize {
		return ErrRecordTooLarge
	}
	if l.closed {
		return ErrClosed
	}
	l.scratch = appendRecord(l.scratch[:0], payload)
	if _, err := l.f.Write(l.scratch); err != nil {
		return err
	}
	l.size += int64(len(l.scratch))
	l.dirty = true
	if l.opt.OnAppend != nil {
		l.opt.OnAppend(len(l.scratch))
	}
	if l.size >= l.opt.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

func (l *Log) commitLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.opt.Sync != SyncAlways || !l.dirty {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	if l.opt.OnSync != nil {
		l.opt.OnSync(time.Since(start))
	}
	l.dirty = false
	return nil
}

// rotateLocked seals the active segment (final fsync unless SyncNever)
// and opens the next one.
func (l *Log) rotateLocked() error {
	if l.opt.Sync != SyncNever && l.dirty {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.seq + 1)
}

// Rotate seals the active segment and starts a fresh one, returning the
// new segment's sequence number. Records appended after Rotate land in
// segments >= the returned sequence — the anchor the snapshot layer
// uses to split "covered by the snapshot" from "replay suffix".
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.seq, nil
}

// SkipTo advances the log so the active segment's sequence is at least
// seq: the current segment is sealed and a fresh one created at seq
// (no-op when already there). Replication is the one place sequence
// numbers arrive from outside the log's own rotation chain: a shipped
// directory can hold a snapshot anchored ahead of every local segment
// (the primary's segments past the anchor were active, or pruned,
// and never shipped), and appending below that anchor would write
// records Recover ignores.
func (l *Log) SkipTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.seq >= seq {
		return nil
	}
	if l.opt.Sync != SyncNever && l.dirty {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(seq)
}

// Close seals the log: a final fsync (unless SyncNever) and file close.
// Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.opt.Sync != SyncNever && l.dirty {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	return err
}

// SegmentBytes reports the active segment's current size (gauge feed).
func (l *Log) SegmentBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Seq reports the active segment's sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// replaySegment streams a segment's valid records through fn. A torn
// record stops the scan: in the last segment it is the expected crash
// tail (torn=true); in an earlier segment the caller treats it as
// corruption. fn's payload is only valid during the call.
func replaySegment(path string, fn func(payload []byte) error) (records int, torn bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	off := 0
	for off < len(b) {
		payload, n, derr := decodeRecord(b[off:])
		if derr != nil {
			return records, true, nil
		}
		if err := fn(payload); err != nil {
			return records, false, err
		}
		off += n
		records++
	}
	return records, false, nil
}
