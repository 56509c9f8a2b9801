package tenant

import (
	"encoding/json"
	"errors"
	"net/http"

	"github.com/ucad/ucad/internal/serve"
)

// Error envelope. Every non-2xx response across the API carries one
// machine-readable envelope under the top-level "error" key:
//
//	{"error":{"code":"backpressure","message":"...","retryable":true}}
//
// code draws from the closed taxonomy below, message is human-readable
// and unstable, and retryable tells automated senders — the feed
// deliverer first among them — whether resending the identical request
// can ever succeed.
const (
	// CodeBackpressure: the shard's scoring queue is full; the event was
	// rolled back and is safe to resend (Retry-After is set).
	CodeBackpressure = "backpressure"
	// CodeShuttingDown: the service is stopping; resend to the
	// replacement instance.
	CodeShuttingDown = "shutting_down"
	// CodeNotReady: the tenant is not serving yet (a warm standby before
	// promotion, a durable pipeline before its restore finished).
	CodeNotReady = "not_ready"
	// CodeInvalidEvent: the event failed validation (missing sql, or a
	// seq without an epoch).
	CodeInvalidEvent = "invalid_event"
	// CodeInvalidBody: the request body was not decodable.
	CodeInvalidBody = "invalid_body"
	// CodeSessionOpen: the alert's session is still open; resolve it
	// after close-out.
	CodeSessionOpen = "session_open"
	// CodeUnknownAlert: no open alert with that id.
	CodeUnknownAlert = "unknown_alert"
	// CodeUnknownVerdict: the resolve verdict was not false_alarm or
	// confirmed.
	CodeUnknownVerdict = "unknown_verdict"
	// CodeUnknownTenant is what a routing miss answers with —
	// distinguishable from a bad payload so a misconfigured frontend
	// shows up as exactly that.
	CodeUnknownTenant = "unknown_tenant"
	// CodeTenantExists rejects creating an id that is already live.
	CodeTenantExists = "tenant_exists"
	// CodeTenantDraining rejects writes to a quiesced tenant (it may
	// come back or be deleted — retry and find out).
	CodeTenantDraining = "tenant_draining"
	// CodeInvalidModel rejects a model upload that fails validation.
	CodeInvalidModel = "invalid_model"
	// CodeNotReplica rejects promoting a process with no unpromoted
	// replica tenants — a refused state change, not a retryable fault.
	CodeNotReplica = "not_replica"
	// CodeInternal: unclassified server-side failure (e.g. a WAL append
	// hitting a full disk). The event was rolled back, so it is safe —
	// and necessary — to resend.
	CodeInternal = "internal"
)

// ErrorInfo is the error envelope's payload.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// errorTable is the one place an error becomes an HTTP status, an
// envelope code and a retryable bit. First match wins; anything
// unlisted is a 500 internal, retryable: an ingest that failed for a
// reason the server cannot name was rolled back, and telling the sender
// "never resend" would turn a transient disk error into acked loss.
var errorTable = []struct {
	err       error
	status    int
	code      string
	retryable bool
}{
	{ErrUnknownTenant, http.StatusNotFound, CodeUnknownTenant, false},
	{ErrInvalidID, http.StatusNotFound, CodeUnknownTenant, false},
	{ErrDraining, http.StatusServiceUnavailable, CodeTenantDraining, true},
	{ErrRegistryClosed, http.StatusServiceUnavailable, CodeShuttingDown, true},
	{ErrTenantExists, http.StatusConflict, CodeTenantExists, false},
	{ErrInvalidModel, http.StatusBadRequest, CodeInvalidModel, false},
	{serve.ErrNotReplica, http.StatusConflict, CodeNotReplica, false},
	{serve.ErrBusy, http.StatusServiceUnavailable, CodeBackpressure, true},
	{serve.ErrStopped, http.StatusServiceUnavailable, CodeShuttingDown, true},
	{serve.ErrNotReady, http.StatusServiceUnavailable, CodeNotReady, true},
	{serve.ErrInvalid, http.StatusBadRequest, CodeInvalidEvent, false},
	{serve.ErrSessionOpen, http.StatusConflict, CodeSessionOpen, false},
	{serve.ErrNoAlert, http.StatusNotFound, CodeUnknownAlert, false},
}

// classify looks err up in errorTable.
func classify(err error) (status int, info *ErrorInfo) {
	for _, row := range errorTable {
		if errors.Is(err, row.err) {
			return row.status, &ErrorInfo{Code: row.code, Message: err.Error(), Retryable: row.retryable}
		}
	}
	return http.StatusInternalServerError, &ErrorInfo{Code: CodeInternal, Message: err.Error(), Retryable: true}
}

// writeErr renders err as the envelope with its mapped status.
func writeErr(w http.ResponseWriter, err error) {
	status, info := classify(err)
	writeEnvelope(w, status, info)
}

// writeEnvelope sends a response whose only content is the envelope —
// the shape of every non-2xx endpoint without a richer body.
func writeEnvelope(w http.ResponseWriter, status int, info *ErrorInfo) {
	retryAfter(w, info)
	writeJSON(w, status, map[string]*ErrorInfo{"error": info})
}

// retryAfter adds Retry-After to a backpressure answer (the rolled-back
// events are safe to resend); call it before the status is written.
func retryAfter(w http.ResponseWriter, info *ErrorInfo) {
	if info != nil && info.Code == CodeBackpressure {
		w.Header().Set("Retry-After", "1")
	}
}

// badRequest answers a handler-local 400 that never reaches the table
// (undecodable bodies, malformed ids, unknown verdicts).
func badRequest(w http.ResponseWriter, code, message string) {
	writeEnvelope(w, http.StatusBadRequest, &ErrorInfo{Code: code, Message: message})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
