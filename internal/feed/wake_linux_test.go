//go:build linux

package feed

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// TestTailerWakesOnChange: with a Poll period of an hour, only the
// file watch can end the wait — the creation of the file and a line
// appended to it must each come through within a second.
func TestTailerWakesOnChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	tl, err := NewTailer(TailerConfig{Path: path, Poll: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	for i, sql := range []string{"SELECT 1", "SELECT 2"} {
		go func() {
			time.Sleep(50 * time.Millisecond) // the tailer is waiting by then
			writeLines(t, path, jsonOp(t, session.Operation{User: "app", SQL: sql}))
		}()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		op, err := tl.Next(ctx)
		cancel()
		if err != nil {
			t.Fatalf("line %d (%s): %v, want it within 1s of being written", i, map[int]string{0: "creates the file", 1: "appended"}[i], err)
		}
		if op.SQL != sql {
			t.Fatalf("line %d: got %q, want %q", i, op.SQL, sql)
		}
	}
}

// TestTailerCloseReleasesWatch: the inotify instance is a descriptor
// of its own, and Close must release it with the tailed file. Only
// those two kinds of /proc/self/fd entry are counted, so descriptors
// other goroutines open or close meanwhile do not matter.
func TestTailerCloseReleasesWatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	held := func() (n int) {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		for _, e := range ents {
			if to, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && (to == path || to == "anon_inode:inotify") {
				n++
			}
		}
		return n
	}
	writeLines(t, path, jsonOp(t, session.Operation{User: "app", SQL: "SELECT 1"}))

	before := held()
	tl, err := NewTailer(TailerConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if tl.w == nil {
		t.Skip("inotify unavailable here: nothing to release")
	}
	mustNext(t, tl)
	if during := held(); during != before+2 {
		t.Fatalf("descriptors held while tailing = %d, want %d (the file and the inotify instance)", during, before+2)
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	if after := held(); after != before {
		t.Fatalf("descriptors held after Close = %d, want %d", after, before)
	}
}
