package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/feed"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/tenant"
)

// statusCounter counts the 503s a handler answers.
type statusCounter struct {
	http.Handler
	busy atomic.Int64
}

func (c *statusCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.Handler.ServeHTTP(&statusWriter{ResponseWriter: w, c: c}, r)
}

type statusWriter struct {
	http.ResponseWriter
	c *statusCounter
}

func (w *statusWriter) WriteHeader(code int) {
	if code == http.StatusServiceUnavailable {
		w.c.busy.Add(1)
	}
	w.ResponseWriter.WriteHeader(code)
}

// sessionView is what must match between an interrupted delivery and an
// uninterrupted one: which session each client has, its dedupe mark and
// its statements in order (timestamps are the servers' wall clocks).
type sessionView struct {
	ID      string
	Epoch   int64
	LastSeq int64
	SQL     []string
}

func viewSessions(svc *serve.Service) map[string]sessionView {
	out := map[string]sessionView{}
	for _, ss := range svc.ExportSessions() {
		v := sessionView{ID: ss.ID, Epoch: ss.Epoch, LastSeq: ss.LastSeq}
		for _, op := range ss.Ops {
			v.SQL = append(v.SQL, op.SQL)
		}
		out[ss.Client] = v
	}
	return out
}

// TestFeederRedeliversThroughFullQueue drives the whole front door —
// Tailer, Feeder, HTTPDeliverer, the registry's HTTP handler — into a
// service whose scoring queue is full for the first attempt. The
// rejected batch is resent as is (the envelope says that is safe); the
// checkpoint must not move until the resend is absorbed, and the
// sessions must equal an uninterrupted control's: nothing acknowledged
// as a duplicate of an operation the server had rolled back.
func TestFeederRedeliversThroughFullQueue(t *testing.T) {
	u := serve.ToyUCAD(t)
	const clients, opsPer = 2, 6
	logPath := filepath.Join(t.TempDir(), "audit.jsonl")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for c := 0; c < clients; c++ {
		for p := 0; p < opsPer; p++ {
			op := session.Operation{User: "app", SessionID: fmt.Sprintf("c%d", c), SQL: serve.NormalStatement(c + p)}
			if err := enc.Encode(op); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	logSize := fi.Size()

	// run feeds the log into a fresh registry; park, when set, is called
	// with the service before the feeder starts and returns the function
	// the run calls once the first rejection has been observed.
	run := func(park func(*serve.Service, *statusCounter, string) func()) map[string]sessionView {
		t.Helper()
		reg := tenant.New(tenant.Options{Serve: serve.Config{Shards: 1, Workers: 1, SweepEvery: -1}})
		defer reg.Close(context.Background())
		tn, err := reg.CreateFromModel(tenant.Spec{}, u)
		if err != nil {
			t.Fatal(err)
		}
		svc := tn.Service()
		counter := &statusCounter{Handler: reg.Handler()}
		srv := httptest.NewServer(counter)
		defer srv.Close()
		ckpt := filepath.Join(t.TempDir(), "feed.ckpt")
		unpark := func() {}
		if park != nil {
			unpark = park(svc, counter, ckpt)
		}

		tl, err := feed.NewTailer(feed.TailerConfig{Path: logPath, Poll: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		fd, err := feed.NewFeeder(feed.FeederConfig{
			Source:         tl,
			Deliver:        &feed.HTTPDeliverer{URL: srv.URL, Backoff: feed.Backoff{Min: time.Millisecond, Max: 5 * time.Millisecond}},
			CheckpointPath: ckpt,
			BatchSize:      clients * opsPer,
			FlushInterval:  time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- fd.Run(ctx) }()
		unpark()
		deadline := time.Now().Add(10 * time.Second)
		for {
			cp, ok, err := feed.LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if ok && cp.Pos.File.Offset == logSize {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("checkpoint never reached the end of the log: %+v (stats %+v)", cp, svc.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("feeder: %v", err)
		}
		if st := svc.Stats(); st.EventsAccepted != clients*opsPer {
			t.Fatalf("events_accepted = %d, want %d: every line exactly once (duplicates %d, rejected %d)",
				st.EventsAccepted, clients*opsPer, st.DuplicateEvents, st.EventsRejected)
		}
		return viewSessions(svc)
	}

	control := run(nil)
	got := run(func(svc *serve.Service, counter *statusCounter, ckpt string) func() {
		// One job parks the worker, two fill the queue: client c0 alone
		// submits four (MinContext is 2), so the first attempt is refused.
		// (A queue of two may refuse a resend once more for real; each
		// refusal costs the deliverer the server's Retry-After second.)
		_, release := svc.ParkScoring(2)
		t.Cleanup(release)
		return func() {
			deadline := time.Now().Add(10 * time.Second)
			for counter.busy.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the full queue never refused the batch")
				}
				time.Sleep(time.Millisecond)
			}
			if cp, ok, _ := feed.LoadCheckpoint(ckpt); ok && cp.Pos.File.Offset != 0 {
				t.Fatalf("checkpoint advanced to %d past a batch the server refused", cp.Pos.File.Offset)
			}
			if st := svc.Stats(); st.EventsAccepted >= clients*opsPer || st.EventsRejected == 0 {
				t.Fatalf("first attempt: %+v, want some events refused", st)
			}
			release()
		}
	})
	if !reflect.DeepEqual(got, control) {
		t.Fatalf("sessions after a refused-then-resent batch differ from the uninterrupted control:\n got %+v\nwant %+v", got, control)
	}
	for c, v := range got {
		if len(v.SQL) != opsPer {
			t.Fatalf("client %s holds %d ops, want %d", c, len(v.SQL), opsPer)
		}
	}
}
