package tenant

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/serve"
)

// TenantHeader routes events whose body carries no tenant field.
const TenantHeader = "X-UCAD-Tenant"

// maxModelUpload bounds a PUT model body (the serialized detector);
// maxAdminBody every other JSON request body except /v1/events (which
// serve.DecodeEvents caps itself).
const (
	maxModelUpload = 256 << 20
	maxAdminBody   = 1 << 20
)

// Handler returns the HTTP/JSON API — the only front over the serving
// library, single-tenant deployments included (they are the default
// tenant of a one-tenant registry):
//
//	POST   /v1/events                  ingest one event or an array (arrays get
//	                                   per-event statuses back), routed per event:
//	                                   body "tenant" field → X-UCAD-Tenant header →
//	                                   ?tenant= → default
//	GET    /v1/tenants                 list tenants (id, model source, stats)
//	POST   /v1/tenants                 create a tenant from a JSON Spec
//	DELETE /v1/tenants/{id}            delete a tenant and its data dir
//	POST   /v1/tenants/{id}/drain      quiesce a tenant (keeps it queryable)
//	PUT    /v1/tenants/{id}/model      hot-replace the tenant's serving model
//	POST   /v1/promote                 flip every replica tenant to serving
//	GET    /v1/tenants/{id}/stats      serving counters            (/stats)
//	GET    /v1/tenants/{id}/sessions   open sessions               (/v1/sessions)
//	GET    /v1/tenants/{id}/alerts     alerts [?status=open|false_alarm|confirmed]
//	                                                               (/v1/alerts)
//	POST   /v1/tenants/{id}/alerts/{aid}/resolve
//	                                   apply an expert verdict     (/v1/alerts/{aid}/resolve)
//	GET    /healthz                    liveness
//	GET    /metrics                    shared Prometheus exposition, tenant-labelled
//
// The parenthesised top-level forms address the ?tenant= tenant,
// defaulting to the default tenant. Every non-2xx response carries the
// error envelope (see envelope.go). A full scoring queue answers 503
// with Retry-After — the backpressure contract: the rejected events
// were rolled back and are safe to resend.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/events", r.handleEvents)
	mux.HandleFunc("GET /v1/tenants", r.handleList)
	mux.HandleFunc("POST /v1/tenants", r.handleCreate)
	mux.HandleFunc("DELETE /v1/tenants/{id}", r.handleDelete)
	mux.HandleFunc("POST /v1/tenants/{id}/drain", r.handleDrain)
	mux.HandleFunc("PUT /v1/tenants/{id}/model", r.scoped(r.handleModelSwap))
	mux.HandleFunc("POST /v1/promote", r.handlePromote)
	mux.HandleFunc("GET /v1/tenants/{id}/stats", r.scoped(r.handleStats))
	mux.HandleFunc("GET /stats", r.scoped(r.handleStats))
	mux.HandleFunc("GET /v1/tenants/{id}/sessions", r.scoped(handleSessions))
	mux.HandleFunc("GET /v1/sessions", r.scoped(handleSessions))
	mux.HandleFunc("GET /v1/tenants/{id}/alerts", r.scoped(handleAlerts))
	mux.HandleFunc("GET /v1/alerts", r.scoped(handleAlerts))
	mux.HandleFunc("POST /v1/tenants/{id}/alerts/{aid}/resolve", r.scoped(handleResolve))
	mux.HandleFunc("POST /v1/alerts/{aid}/resolve", r.scoped(handleResolve))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", r.hub.Registry.Handler())
	return mux
}

// scoped resolves the tenant a per-tenant endpoint addresses — the {id}
// path segment, else ?tenant=, else the default tenant — and answers
// the routing error itself.
func (r *Registry) scoped(h func(http.ResponseWriter, *http.Request, *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		if id == "" {
			id = req.URL.Query().Get("tenant")
		}
		t, err := r.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		h(w, req, t)
	}
}

// EventStatus is one event's outcome within a batched submission.
type EventStatus struct {
	Status string `json:"status"` // "accepted" or "rejected"
	// Code is the envelope code of the rejection (empty when accepted).
	Code string `json:"code,omitempty"`
	// Retryable reports whether resending this exact event can succeed.
	Retryable bool `json:"retryable,omitempty"`
}

// EventsResponse reports how much of a submission was absorbed. Array
// submissions carry one per-event status in submission order, so a
// partially rejected batch tells the client exactly which events to
// resend; single-object submissions carry no Events list.
type EventsResponse struct {
	Accepted int           `json:"accepted"`
	Err      *ErrorInfo    `json:"error,omitempty"`
	Events   []EventStatus `json:"events,omitempty"`
}

// handleEvents is the ingest path. Every event is attempted — a
// rejection does not shadow the events after it — and batches may mix
// tenants: each event resolves independently, so one bad tenant id
// rejects only its own events. The request is the commit group: no
// status is written, accepted or not, until every WAL stream the
// submission touched has been committed (Registry.IngestBatch), so a
// 202 still means every accepted event is durable per -fsync.
func (r *Registry) handleEvents(w http.ResponseWriter, req *http.Request) {
	events, isArray, err := serve.DecodeEvents(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, EventsResponse{
			Err: &ErrorInfo{Code: CodeInvalidBody, Message: err.Error()},
		})
		return
	}
	// Request-level fallback for events without a body tenant field.
	fallback := req.Header.Get(TenantHeader)
	if fallback == "" {
		fallback = req.URL.Query().Get("tenant")
	}
	for i := range events {
		if events[i].Tenant == "" {
			events[i].Tenant = fallback
		}
	}
	status := http.StatusAccepted
	var resp EventsResponse
	if isArray {
		resp.Events = make([]EventStatus, len(events))
	}
	for i, err := range r.IngestBatch(events) {
		if err == nil {
			resp.Accepted++
			if isArray {
				resp.Events[i].Status = "accepted"
			}
			continue
		}
		st, info := classify(err)
		if isArray {
			resp.Events[i] = EventStatus{Status: "rejected", Code: info.Code, Retryable: info.Retryable}
		}
		// A retryable rejection outranks a permanent one for the batch
		// status and envelope: senders drop the rejected events of a
		// non-retryable batch, which is only safe when none of them could
		// have succeeded on a resend.
		if resp.Err == nil || info.Retryable && !resp.Err.Retryable {
			status, resp.Err = st, info
		}
	}
	retryAfter(w, resp.Err)
	writeJSON(w, status, resp)
}

// Info is the admin-API view of one tenant.
type Info struct {
	ID          string      `json:"id"`
	Model       string      `json:"model,omitempty"` // what the model loaded from
	Dir         string      `json:"dir,omitempty"`
	Draining    bool        `json:"draining,omitempty"`
	Replica     bool        `json:"replica,omitempty"`
	Recovered   int         `json:"recovered_sessions"`
	CleanSeal   bool        `json:"clean_seal"`
	WALReplayed int         `json:"wal_records_replayed"`
	Stats       serve.Stats `json:"stats"`
}

func (t *Tenant) info() Info {
	return Info{
		ID:          t.id,
		Model:       t.modelFrom,
		Dir:         t.dir,
		Draining:    t.Draining(),
		Replica:     t.Replica(),
		Recovered:   t.restore.Sessions,
		CleanSeal:   t.restore.CleanSeal,
		WALReplayed: t.restore.Records,
		Stats:       t.Stats(),
	}
}

func (r *Registry) handleList(w http.ResponseWriter, req *http.Request) {
	ts := r.List()
	out := make([]Info, len(ts))
	for i, t := range ts {
		out[i] = t.info()
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Registry) handleCreate(w http.ResponseWriter, req *http.Request) {
	var spec Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxAdminBody)).Decode(&spec); err != nil {
		badRequest(w, CodeInvalidBody, "invalid tenant spec")
		return
	}
	t, err := r.Create(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.info())
}

func (r *Registry) handleDelete(w http.ResponseWriter, req *http.Request) {
	if err := r.Delete(req.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (r *Registry) handleDrain(w http.ResponseWriter, req *http.Request) {
	t, err := r.Drain(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

// handleModelSwap is the hot model replacement path: the uploaded model
// is staged and validated off the ingest path (core.Load proves it
// decodes into a working detector), tuned like any other loaded model,
// then atomically swapped into the tenant's serving pipeline and
// checkpointed. Ingest keeps flowing throughout; a model that fails
// validation answers 400 invalid_model and changes nothing.
func (r *Registry) handleModelSwap(w http.ResponseWriter, req *http.Request, t *Tenant) {
	u, err := core.Load(http.MaxBytesReader(w, req.Body, maxModelUpload))
	if err != nil {
		writeErr(w, errors.Join(ErrInvalidModel, err))
		return
	}
	if r.opts.Tune != nil {
		r.opts.Tune(u)
	}
	if err := t.SwapModel(u); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

// tenantStats wraps the serving counters with registry-level context:
// where the tenant sits in the shared fine-tune queue.
type tenantStats struct {
	serve.Stats
	// RetrainQueuePosition is the tenant's place in the least-served-first
	// retrain queue (0 = idle or retraining now, 1 = next).
	RetrainQueuePosition int `json:"retrain_queue_position"`
}

func (r *Registry) handleStats(w http.ResponseWriter, req *http.Request, t *Tenant) {
	writeJSON(w, http.StatusOK, tenantStats{Stats: t.Stats(), RetrainQueuePosition: r.gate.Position(t.id)})
}

// handleSessions exposes the tenant's open sessions — the observable
// state the failover contract promises is identical on a promoted
// standby and an uninterrupted primary, and the surface the e2e suite
// compares across the two.
func handleSessions(w http.ResponseWriter, req *http.Request, t *Tenant) {
	writeJSON(w, http.StatusOK, t.svc.ExportSessions())
}

// handlePromote flips every replica tenant to serving — the failover
// switch. 409 not_replica when there is nothing to promote (already
// promoted, or this process is a primary).
func (r *Registry) handlePromote(w http.ResponseWriter, req *http.Request) {
	promoted, err := r.Promote()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": promoted})
}

func handleAlerts(w http.ResponseWriter, req *http.Request, t *Tenant) {
	status := req.URL.Query().Get("status")
	switch status {
	case "", serve.StatusOpen, serve.StatusFalseAlarm, serve.StatusConfirmed:
	default:
		badRequest(w, CodeInvalidBody, "unknown status filter")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"alerts": t.svc.Alerts(status)})
}

func handleResolve(w http.ResponseWriter, req *http.Request, t *Tenant) {
	id, err := strconv.ParseInt(req.PathValue("aid"), 10, 64)
	if err != nil {
		badRequest(w, CodeInvalidBody, "invalid alert id")
		return
	}
	var body struct {
		Verdict string `json:"verdict"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxAdminBody)).Decode(&body); err != nil {
		badRequest(w, CodeInvalidBody, "invalid JSON body")
		return
	}
	switch err := t.svc.Resolve(id, body.Verdict); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "resolved"})
	case errors.Is(err, serve.ErrInvalid):
		badRequest(w, CodeUnknownVerdict, "unknown verdict (use false_alarm or confirmed)")
	default:
		writeErr(w, err)
	}
}
