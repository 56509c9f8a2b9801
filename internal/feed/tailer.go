package feed

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// TailerConfig configures a file tailer.
type TailerConfig struct {
	// Path is the audit log file to follow.
	Path string
	// Format selects the line parser: "jsonl" (default; the
	// session.Operation wire format, one JSON object per line) or "csv"
	// (ts,user,addr,session_id,sql — see ParseCSVLine).
	Format string
	// Poll is the fallback re-check period once the tailer has caught
	// up (default 50ms). On Linux the tailer wakes as soon as the file
	// changes and Poll only bounds a wait no change ends; elsewhere, or
	// when inotify cannot be set up, it is how often the file is
	// re-checked for new bytes or rotation.
	Poll time.Duration
	// Metrics receives per-source instrumentation (nil disables).
	Metrics *SourceMetrics
}

// Tailer follows an audit log file like tail -F: it returns complete
// records in order, waits at EOF for the writer (woken by the file's
// changes on Linux, see watcher; by the Poll timer elsewhere), follows
// rotation (rename-and-recreate: the renamed file is drained to its end
// before the new one starts) and truncation (copytruncate: reading
// restarts at zero), and never returns a torn record — a trailing line
// without its newline is held until the writer finishes it, unless the
// file was rotated away, in which case the remnant is parsed as-is or
// counted as a parse error.
//
// Pos/SeekTo expose the byte position after the last returned record,
// pinned to the file's inode, so a Feeder checkpoint resumes exactly
// where delivery stopped even if the file rotated in between. The
// tailer follows one rotation at a time: if the log rotates again while
// a rotated file drains (or while the feeder is down and the
// checkpointed file is gone), the skipped generations are counted in
// the ucad_feed_rotation_gaps_total metric rather than lost silently.
// Not safe for concurrent use.
type Tailer struct {
	cfg   TailerConfig
	parse func([]byte) (session.Operation, error)

	f        *os.File
	ino      uint64
	readOff  int64 // bytes consumed from f into the line queue
	retOff   int64 // offset just past the last line returned by Next
	queue    []tline
	partial  []byte
	draining bool     // f is a rotated-away file; switch to cfg.Path at EOF
	w        *watcher // wakes Next on a change; nil waits on the Poll timer

	// quietSince is when the rotated-away file was last found quiet
	// (zero while it is being read or no rotation is pending); the old
	// descriptor is only abandoned once it has stayed quiet for
	// rotateGrace Poll periods, because a writer holding the renamed
	// file open may still be finishing a half-written record (rotation
	// mid-record). It is wall time, not a count of re-checks: the
	// rename and create alone wake the tailer more than once.
	quietSince time.Time

	// expectIno is the live file's inode observed when rotation was
	// first detected. If the file the tailer eventually reopens has a
	// different inode, the log rotated again in between and at least one
	// intermediate generation was skipped — counted as a rotation gap.
	expectIno uint64
}

// rotateGrace is how many Poll periods a rotated-away file must stay
// quiet before the tailer flushes its unterminated tail and moves on.
const rotateGrace = 2

// tline is one complete line and the file offset just past its newline.
type tline struct {
	text []byte
	end  int64
}

// NewTailer builds a tailer. The file may not exist yet; Next waits for
// it to appear.
func NewTailer(cfg TailerConfig) (*Tailer, error) {
	if cfg.Poll <= 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	t := &Tailer{cfg: cfg}
	switch cfg.Format {
	case "", "jsonl":
		t.parse = ParseJSONLine
	case "csv":
		t.parse = ParseCSVLine
	default:
		return nil, fmt.Errorf("feed: unknown tail format %q (want jsonl or csv)", cfg.Format)
	}
	t.w = newWatcher(cfg.Path)
	return t, nil
}

// Pos returns the resume position after the last returned record.
func (t *Tailer) Pos() FilePos { return FilePos{Ino: t.ino, Offset: t.retOff} }

// SeekTo resumes at a committed position. If the inode no longer
// belongs to cfg.Path (the log rotated while the feeder was down), the
// rotated file is located among its directory siblings and drained
// first; if it is gone entirely, reading restarts at the head of the
// current file (redelivery, which the serving layer deduplicates).
func (t *Tailer) SeekTo(pos FilePos) error {
	if t.f != nil {
		return fmt.Errorf("feed: SeekTo after reading started")
	}
	if pos.Ino == 0 {
		return nil
	}
	open := func(path string, off int64, draining bool) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			f.Close()
			return err
		}
		t.f, t.ino, t.readOff, t.retOff, t.draining = f, pos.Ino, off, off, draining
		t.w.watchFile(path)
		return nil
	}
	if st, err := os.Stat(t.cfg.Path); err == nil && fileIno(st) == pos.Ino {
		if st.Size() >= pos.Offset {
			return open(t.cfg.Path, pos.Offset, false)
		}
		// Truncated below the checkpoint: whatever was committed past the
		// truncation point cannot be re-read — restart from scratch.
		t.cfg.Metrics.rotationGap()
		return nil
	}
	// The checkpointed inode is not at Path: look for the rotated file.
	matches, _ := filepath.Glob(t.cfg.Path + "*")
	for _, m := range matches {
		if st, err := os.Stat(m); err == nil && fileIno(st) == pos.Ino && st.Size() >= pos.Offset {
			return open(m, pos.Offset, true)
		}
	}
	// Rotated file deleted while the feeder was down: the tail of that
	// generation (and any intermediates) is unrecoverable — restart from
	// the current head.
	t.cfg.Metrics.rotationGap()
	return nil
}

// Rewind discards everything buffered and re-seeks to an earlier
// committed position, mid-run — the failover path: after delivery
// switches to a standby that may be missing the old primary's
// unreplicated tail, the feeder re-reads from a retained older position
// and the serving layer's sequence dedupe absorbs the overlap. The
// same rotation-loss rules as SeekTo apply: a position whose file is
// gone restarts at the head of the current file and counts a rotation
// gap.
func (t *Tailer) Rewind(pos FilePos) error {
	if t.f != nil {
		t.closeFile()
	}
	t.queue, t.partial = nil, nil
	t.ino, t.readOff, t.retOff = 0, 0, 0
	t.draining = false
	t.quietSince = time.Time{}
	t.expectIno = 0
	return t.SeekTo(pos)
}

// Next returns the next parsed record, blocking for the writer.
// Unparsable lines are counted (parse errors metric) and skipped.
func (t *Tailer) Next(ctx context.Context) (session.Operation, error) {
	for {
		if op, ok := t.popLine(); ok {
			return op, nil
		}
		progressed, err := t.fill()
		if err != nil {
			return session.Operation{}, err
		}
		if progressed {
			continue
		}
		if err := t.wait(ctx); err != nil {
			return session.Operation{}, err
		}
	}
}

// wait blocks until the file may have changed: the watcher's wake, or
// Poll at the latest. Without a watcher (off Linux, inotify
// unavailable, or lost mid-run) it is the Poll timer alone. It returns
// ctx.Err() once ctx is done.
func (t *Tailer) wait(ctx context.Context) error {
	if t.w != nil {
		err := t.w.wait(ctx, t.cfg.Poll)
		if err == nil || ctx.Err() != nil {
			return ctx.Err()
		}
		// Events may have been lost: re-check now, and on the timer from
		// here on.
		t.w.close()
		t.w = nil
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(t.cfg.Poll):
		return nil
	}
}

// popLine parses queued complete lines until one yields a record.
func (t *Tailer) popLine() (session.Operation, bool) {
	for len(t.queue) > 0 {
		ln := t.queue[0]
		t.queue = t.queue[1:]
		t.retOff = ln.end
		t.cfg.Metrics.lineRead()
		op, err := t.parse(ln.text)
		if err != nil {
			t.cfg.Metrics.parseError()
			continue
		}
		return op, true
	}
	return session.Operation{}, false
}

// fill reads new bytes from the current file into the line queue, or
// reacts to rotation/truncation. It reports whether it made progress
// (the caller should retry immediately rather than poll-sleep).
func (t *Tailer) fill() (bool, error) {
	if t.f == nil {
		f, err := os.Open(t.cfg.Path)
		if err != nil {
			if os.IsNotExist(err) {
				return false, nil // wait for the writer to create it
			}
			return false, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return false, err
		}
		t.f, t.ino, t.readOff, t.retOff = f, fileIno(st), 0, 0
		t.w.watchFile(t.cfg.Path)
		if t.expectIno != 0 {
			if t.ino != t.expectIno {
				// The log rotated again while the old generation was
				// draining: whatever lived at Path in between is gone.
				t.cfg.Metrics.rotationGap()
			}
			t.expectIno = 0
		}
		return true, nil
	}

	var buf [64 * 1024]byte
	n, err := t.f.Read(buf[:])
	if n > 0 {
		t.quietSince = time.Time{}
		t.absorb(buf[:n])
		t.updateLag()
		return true, nil
	}
	if err != nil && err != io.EOF {
		return false, err
	}

	// At EOF: is the file we hold still the live one?
	st, serr := os.Stat(t.cfg.Path)
	switch {
	case t.draining || serr != nil || (t.ino != 0 && fileIno(st) != t.ino):
		// Rotated away (or we were already draining a rotated file and
		// hit its end). The writer may still finish a half-written
		// record through its old handle, so keep reading the old
		// descriptor until it has been quiet for rotateGrace Poll
		// periods before flushing the remnant and switching to the new
		// file.
		if serr != nil && !os.IsNotExist(serr) {
			return false, serr
		}
		if t.expectIno == 0 && serr == nil {
			t.expectIno = fileIno(st) // the generation we expect to open next
		}
		if t.quietSince.IsZero() {
			t.quietSince = time.Now()
		}
		if time.Since(t.quietSince) < rotateGrace*t.cfg.Poll {
			return false, nil
		}
		t.flushPartial()
		t.closeFile() // next fill opens cfg.Path fresh
		t.draining = false
		t.quietSince = time.Time{}
		return true, nil
	case st.Size() < t.readOff:
		// Truncated in place (copytruncate): restart from the head. The
		// partial tail belonged to the overwritten content.
		if _, err := t.f.Seek(0, io.SeekStart); err != nil {
			return false, err
		}
		t.partial = nil
		t.readOff, t.retOff = 0, 0
		return true, nil
	}
	t.setLag(st)
	return false, nil
}

// absorb splits newly read bytes into complete lines plus a partial
// tail.
func (t *Tailer) absorb(b []byte) {
	t.partial = append(t.partial, b...)
	t.readOff += int64(len(b))
	base := t.readOff - int64(len(t.partial))
	start := 0
	for i := 0; i < len(t.partial); i++ {
		if t.partial[i] == '\n' {
			line := append([]byte(nil), t.partial[start:i]...)
			t.queue = append(t.queue, tline{text: line, end: base + int64(i) + 1})
			start = i + 1
		}
	}
	t.partial = append(t.partial[:0], t.partial[start:]...)
}

// flushPartial queues the unterminated tail of a rotated-away file as a
// final line. Reports whether anything was flushed.
func (t *Tailer) flushPartial() bool {
	if len(t.partial) == 0 {
		return false
	}
	t.queue = append(t.queue, tline{text: append([]byte(nil), t.partial...), end: t.readOff})
	t.partial = nil
	return true
}

// updateLag exports how many bytes the live file holds beyond what was
// returned to the consumer.
func (t *Tailer) updateLag() {
	if t.cfg.Metrics == nil {
		return
	}
	if st, err := os.Stat(t.cfg.Path); err == nil {
		t.setLag(st)
	}
}

// setLag is updateLag from a stat of cfg.Path already taken.
func (t *Tailer) setLag(st os.FileInfo) {
	if t.cfg.Metrics == nil {
		return
	}
	lag := st.Size() - t.retOff
	if t.draining || fileIno(st) != t.ino {
		lag = st.Size() // everything in the new file is still ahead
	}
	if lag < 0 {
		lag = 0
	}
	t.cfg.Metrics.setLagBytes(float64(lag))
}

// closeFile abandons the file being read and its inode watch.
func (t *Tailer) closeFile() error {
	t.w.unwatchFile()
	err := t.f.Close()
	t.f = nil
	return err
}

// Close releases the tailed file and the watcher.
func (t *Tailer) Close() error {
	t.w.close()
	t.w = nil
	if t.f == nil {
		return nil
	}
	return t.closeFile()
}
