package feed

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/tenant"
)

// segmentFD finds the process's open descriptor for the WAL segment
// under dir (one shard, so there is exactly one).
func segmentFD(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, dir) && strings.HasSuffix(target, ".log") {
			fd, err := strconv.Atoi(e.Name())
			if err != nil {
				t.Fatal(err)
			}
			return fd
		}
	}
	t.Fatalf("no open WAL segment under %s", dir)
	return -1
}

// TestHTTPDelivererRetriesThroughDiskFull: a WAL append that fails on a
// transient disk error (ENOSPC here — the segment's descriptor is
// pointed at /dev/full for a while) rolls the event back server-side,
// so the server must say "retryable" and the deliverer must keep the
// batch: once the disk recovers every event lands, none dropped. The
// old 400 internal/non-retryable answer made the deliverer skip the
// batch and advance its checkpoint — acked loss.
func TestHTTPDelivererRetriesThroughDiskFull(t *testing.T) {
	root := t.TempDir()
	reg := tenant.New(tenant.Options{
		Root:  root,
		Serve: serve.Config{Shards: 1, Workers: 1, SweepEvery: -1},
	})
	defer reg.Close(context.Background())
	tn, err := reg.CreateFromModel(tenant.Spec{}, testUCAD(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	fd := segmentFD(t, filepath.Join(root, "tenants", serve.DefaultTenant, "wal"))
	saved, err := syscall.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(saved)
	full, err := syscall.Open("/dev/full", syscall.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer syscall.Close(full)
	if err := syscall.Dup3(full, fd, 0); err != nil {
		t.Fatal(err)
	}
	healed := false
	heal := func() {
		if !healed {
			healed = true
			if err := syscall.Dup3(saved, fd, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer heal()

	events := make([]serve.Event, 4)
	for i := range events {
		events[i] = serve.Event{ClientID: "c", User: "app", SQL: normalStatement(i), Seq: int64(i + 1), Epoch: 1}
	}
	sm := NewMetrics(nil).Source("t")
	d := &HTTPDeliverer{URL: srv.URL, Backoff: fastBackoff(), Metrics: sm}
	done := make(chan error, 1)
	go func() { done <- d.Deliver(context.Background(), events) }()

	deadline := time.Now().Add(10 * time.Second)
	for sm.deliveryRetries.Value() < 3 {
		select {
		case err := <-done:
			t.Fatalf("Deliver returned %v while the disk was full (dropped=%d): the batch was given up on",
				err, sm.droppedEvents.Value())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("deliverer never retried")
		}
		time.Sleep(time.Millisecond)
	}
	if st := tn.Stats(); st.EventsAccepted != 0 || st.SessionsOpen != 0 {
		t.Fatalf("events entered a session the log could not record: %+v", st)
	}

	heal()
	if err := <-done; err != nil {
		t.Fatalf("Deliver after the disk recovered: %v", err)
	}
	if got := sm.deliveredEvents.Value(); got != int64(len(events)) {
		t.Fatalf("delivered = %d, want %d", got, len(events))
	}
	if got := sm.droppedEvents.Value(); got != 0 {
		t.Fatalf("dropped = %d, want 0", got)
	}
	if st := tn.Stats(); st.EventsAccepted != int64(len(events)) {
		t.Fatalf("server accepted %d, want %d", st.EventsAccepted, len(events))
	}
}
