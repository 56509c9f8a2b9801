package feed

// Tests for envelope-aware response classification: when the server
// sends the unified {"error":{"code","message","retryable"}} envelope,
// its retryable bit outranks the status-code heuristics.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestHTTPDelivererEnvelopeRetryableOverridesCap: a retryable envelope
// keeps the deliverer retrying even on a status the status-code fallback
// would give up on (a bare 500 is capped at maxCapped5xxAttempts).
func TestHTTPDelivererEnvelopeRetryableOverridesCap(t *testing.T) {
	var posts atomic.Int64
	failures := int64(maxCapped5xxAttempts + 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) <= failures {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"accepted":0,"error":{"code":"backpressure","message":"queue full","retryable":true}}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"accepted":2}`))
	}))
	defer srv.Close()

	d := &HTTPDeliverer{URL: srv.URL, Backoff: fastBackoff()}
	if err := d.Deliver(context.Background(), smallEvents(2)); err != nil {
		t.Fatalf("retryable envelope gave up: %v", err)
	}
	if got := posts.Load(); got != failures+1 {
		t.Fatalf("posts = %d, want %d", got, failures+1)
	}
}

// TestHTTPDelivererEnvelopeNonRetryableFailsFast: a non-retryable
// envelope without per-event statuses is a hard failure on the first
// attempt, even on a 503 the status-code fallback would retry forever.
func TestHTTPDelivererEnvelopeNonRetryableFailsFast(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"accepted":0,"error":{"code":"unknown_tenant","message":"no tenant \"ghost\"","retryable":false}}`))
	}))
	defer srv.Close()

	d := &HTTPDeliverer{URL: srv.URL, Backoff: fastBackoff()}
	if err := d.Deliver(context.Background(), smallEvents(1)); err == nil {
		t.Fatal("non-retryable envelope reported as delivered")
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("posts = %d, want 1 (must not retry a non-retryable rejection)", got)
	}
}

// TestHTTPDelivererEnvelope404PerEventSkips: the multi-tenant router
// answers a mixed batch with 404 + envelope + per-event statuses. The
// status-code fallback calls any 404 permanent; the envelope's per-event
// statuses prove the server attempted every event, so the accepted ones
// are done and the rejected ones are skipped.
func TestHTTPDelivererEnvelope404PerEventSkips(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"accepted":1,` +
			`"error":{"code":"unknown_tenant","message":"no tenant \"ghost\"","retryable":false},` +
			`"events":[{"status":"accepted"},{"status":"rejected","code":"unknown_tenant"}]}`))
	}))
	defer srv.Close()

	sm := NewMetrics(nil).Source("t")
	d := &HTTPDeliverer{URL: srv.URL, Backoff: fastBackoff(), Metrics: sm}
	if err := d.Deliver(context.Background(), smallEvents(2)); err != nil {
		t.Fatalf("per-event envelope 404 should be done: %v", err)
	}
	if got := sm.deliveredEvents.Value(); got != 1 {
		t.Fatalf("delivered = %d, want 1", got)
	}
	if got := sm.droppedEvents.Value(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}
