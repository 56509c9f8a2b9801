//go:build linux

package feed

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// watcher wakes a Tailer when its file changes. It is one inotify
// instance, read through the runtime poller, holding two watches: an
// IN_MODIFY watch on the inode being read (an inode watch keeps
// following a rotated-away file while it drains) and a watch on the
// directory for entries created, moved or deleted under a name that
// starts with the file's base name (rotation, creation, deletion). A
// directory-wide IN_MODIFY watch would also wake on every other log in
// the directory, so writes are watched per inode.
type watcher struct {
	f      *os.File // the inotify instance
	fd     int      // f's descriptor, for the watch calls
	base   []byte   // the tailed file's base name
	dirWd  int32
	fileWd int32 // -1 while no file is watched
	buf    [4096]byte
}

// errWatchLost reports that the instance can no longer be trusted to
// wake the tailer (its queue overflowed, or the directory went away).
var errWatchLost = errors.New("feed: file watch lost")

// inotify event header: wd int32, mask, cookie, len uint32, then len
// bytes of NUL-padded name.
const inotifyHeader = 16

// newWatcher sets up the instance for path, or returns nil when inotify
// is unavailable (instance limit, a directory that does not exist yet):
// the tailer then waits on its Poll timer alone.
func newWatcher(path string) *watcher {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil
	}
	dirWd, err := syscall.InotifyAddWatch(fd, filepath.Dir(path),
		syscall.IN_CREATE|syscall.IN_MOVED_FROM|syscall.IN_MOVED_TO|syscall.IN_DELETE)
	if err != nil {
		syscall.Close(fd)
		return nil
	}
	// The descriptor is non-blocking, so os.NewFile registers it with
	// the runtime poller and Read honours read deadlines.
	return &watcher{f: os.NewFile(uintptr(fd), "inotify"), fd: fd, base: []byte(filepath.Base(path)), dirWd: int32(dirWd), fileWd: -1}
}

// watchFile moves the inode watch to the file just opened at path. If
// the path was rotated between the open and this call, the watch lands
// on the new file instead: the directory events already queued wake
// the tailer, which then drains the old file on its Poll timer.
func (w *watcher) watchFile(path string) {
	if w == nil {
		return
	}
	w.unwatchFile()
	if wd, err := syscall.InotifyAddWatch(w.fd, path, syscall.IN_MODIFY); err == nil {
		w.fileWd = int32(wd)
	}
}

// unwatchFile drops the inode watch of the file being abandoned.
func (w *watcher) unwatchFile() {
	if w == nil || w.fileWd < 0 {
		return
	}
	syscall.InotifyRmWatch(w.fd, uint32(w.fileWd)) // already gone if the inode was freed
	w.fileWd = -1
}

// wait blocks until the watched file or a matching directory entry
// changes, poll passes, or ctx is done. It returns nil on a change or a
// timeout (the caller re-checks the file either way), ctx.Err() once
// ctx is done, and errWatchLost or a read error when the instance must
// be given up.
func (w *watcher) wait(ctx context.Context, poll time.Duration) error {
	deadline := time.Now().Add(poll)
	byCtx := false
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline, byCtx = d, true
	}
	if err := w.f.SetReadDeadline(deadline); err != nil {
		return err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { w.f.SetReadDeadline(time.Now()) })
		defer stop()
	}
	for {
		n, err := w.f.Read(w.buf[:])
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			if byCtx || ctx.Err() != nil {
				<-ctx.Done() // the ctx deadline has passed: Done closes at once
				return ctx.Err()
			}
			return nil
		case err != nil:
			return err
		}
		if woke, err := w.relevant(w.buf[:n]); woke || err != nil {
			return err
		}
	}
}

// relevant reports whether a read of events holds one for the watched
// inode or for a directory entry named like the tailed file.
func (w *watcher) relevant(b []byte) (bool, error) {
	woke := false
	for len(b) >= inotifyHeader {
		wd := int32(binary.NativeEndian.Uint32(b[0:]))
		mask := binary.NativeEndian.Uint32(b[4:])
		n := inotifyHeader + int(binary.NativeEndian.Uint32(b[12:]))
		if n > len(b) {
			break
		}
		name := b[inotifyHeader:n] // NUL-padded
		b = b[n:]
		switch {
		case mask&syscall.IN_Q_OVERFLOW != 0:
			return true, errWatchLost
		case wd == w.dirWd && mask&syscall.IN_IGNORED != 0:
			return true, errWatchLost
		case wd == w.fileWd:
			if mask&syscall.IN_IGNORED != 0 {
				w.fileWd = -1 // the kernel dropped the watch with the inode
			}
			woke = true
		case wd == w.dirWd && bytes.HasPrefix(name, w.base):
			woke = true
		}
	}
	return woke, nil
}

// close releases the instance and every watch it holds.
func (w *watcher) close() {
	if w != nil {
		w.f.Close()
	}
}
