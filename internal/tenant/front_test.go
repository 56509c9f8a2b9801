package tenant

// The single-tenant HTTP contract, driven through the only front there
// is: a one-tenant registry (the default tenant) behind Registry.Handler
// — exactly what `ucad-serve -model m` runs.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/obs"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/wal"
)

// oneTenant serves u as the default tenant of a fresh registry.
func oneTenant(t *testing.T, u *core.UCAD, cfg serve.Config) (*serve.Service, *httptest.Server) {
	t.Helper()
	reg := New(Options{Serve: cfg})
	tn, err := reg.CreateFromModel(Spec{}, u)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		reg.Close(context.Background())
	})
	return tn.Service(), ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, code, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func postBody(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func resolve(t *testing.T, base string, id int64, body string) (int, string) {
	t.Helper()
	return postBody(t, fmt.Sprintf("%s/v1/alerts/%d/resolve", base, id), body)
}

// TestServeHTTPIntegration drives the full pipeline over the wire: 8
// concurrent clients stream 12-operation sessions through POST
// /v1/events, one of them hiding an A1-style confidential read
// mid-session. The alert must appear while that session is still open,
// survive close-out, and resolve through the expert endpoint.
func TestServeHTTPIntegration(t *testing.T) {
	u := trainModel(t, "va")
	clk := newFakeClock()
	svc, ts := oneTenant(t, u, serve.Config{
		Workers:     4,
		QueueSize:   256,
		Batch:       8,
		IdleTimeout: 10 * time.Minute,
		Clock:       clk.Now,
	})

	const clients, opsPerClient, anomalyPos = 8, 12, 6
	attacker := "client-3"

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", c)
			for pos := 0; pos < opsPerClient; pos++ {
				sql := normalStatement("va", pos)
				if client == attacker && pos == anomalyPos {
					sql = anomalySQL
				}
				body, _ := json.Marshal(serve.Event{ClientID: client, User: "app", SQL: sql})
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errc <- fmt.Errorf("%s op %d: status %d", client, pos, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	svc.Drain()

	// Health and stats while all 8 sessions are open.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var st serve.Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.SessionsOpen != clients {
		t.Fatalf("sessions open = %d, want %d", st.SessionsOpen, clients)
	}
	if st.EventsAccepted != clients*opsPerClient {
		t.Fatalf("events accepted = %d, want %d", st.EventsAccepted, clients*opsPerClient)
	}
	// Every op past MinContext was scored.
	wantScored := int64(clients * (opsPerClient - u.Model.Config().MinContext))
	if st.OpsScored != wantScored {
		t.Fatalf("ops scored = %d, want %d", st.OpsScored, wantScored)
	}

	// The anomaly was flagged MID-SESSION: the alert exists while the
	// attacker's session is still open.
	var alertsResp struct{ Alerts []serve.Alert }
	getJSON(t, ts.URL+"/v1/alerts?status=open", &alertsResp)
	if len(alertsResp.Alerts) != 1 {
		t.Fatalf("open alerts = %+v, want exactly one", alertsResp.Alerts)
	}
	alert := alertsResp.Alerts[0]
	if alert.Client != attacker || alert.Final {
		t.Fatalf("mid-session alert %+v, want open alert for %s", alert, attacker)
	}
	if len(alert.Positions) != 1 || alert.Positions[0] != anomalyPos {
		t.Fatalf("alert positions %v, want [%d]", alert.Positions, anomalyPos)
	}
	if alert.Statements[0] != anomalySQL {
		t.Fatalf("alert statement %q, want %q", alert.Statements[0], anomalySQL)
	}

	// Resolving before the session closes is a conflict.
	if code, _ := resolve(t, ts.URL, alert.ID, `{"verdict":"confirmed"}`); code != http.StatusConflict {
		t.Fatalf("resolve while open = %d, want 409", code)
	}

	// Idle close-out finalizes the alert; the 7 clean sessions join the
	// verified pool.
	clk.Advance(11 * time.Minute)
	if n := svc.CloseIdleNow(); n != clients {
		t.Fatalf("closed %d sessions, want %d", n, clients)
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.SessionsFlagged != 1 || st.VerifiedPool != clients-1 {
		t.Fatalf("post-close stats %+v", st)
	}
	getJSON(t, ts.URL+"/v1/alerts", &alertsResp)
	if len(alertsResp.Alerts) != 1 || !alertsResp.Alerts[0].Final {
		t.Fatalf("final alerts %+v", alertsResp.Alerts)
	}

	// Expert confirms the anomaly; the pending queue drains.
	if code, body := resolve(t, ts.URL, alert.ID, `{"verdict":"confirmed"}`); code != http.StatusOK {
		t.Fatalf("resolve = %d (%s)", code, body)
	}
	if code, _ := resolve(t, ts.URL, alert.ID, `{"verdict":"confirmed"}`); code != http.StatusNotFound {
		t.Fatal("double resolve must 404")
	}
	if len(svc.Alerts(serve.StatusOpen)) != 0 {
		t.Fatal("pending queue not drained")
	}
	getJSON(t, ts.URL+"/v1/alerts?status=confirmed", &alertsResp)
	if len(alertsResp.Alerts) != 1 {
		t.Fatalf("confirmed alerts = %d, want 1", len(alertsResp.Alerts))
	}
	svc.Stop()
}

func TestServeHTTPEventArrayAndValidation(t *testing.T) {
	_, ts := oneTenant(t, trainModel(t, "va"), serve.Config{Workers: 1, QueueSize: 64})

	// A JSON array ingests as a batch.
	events := make([]serve.Event, 5)
	for i := range events {
		events[i] = serve.Event{ClientID: "batch", User: "app", SQL: normalStatement("va", i)}
	}
	resp, body := postJSON(t, ts.URL+"/v1/events", events)
	var er EventsResponse
	json.Unmarshal(body, &er)
	if resp.StatusCode != http.StatusAccepted || er.Accepted != 5 {
		t.Fatalf("batch ingest: %d accepted=%d", resp.StatusCode, er.Accepted)
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"client_id":"x"}`, http.StatusBadRequest}, // missing sql
		{`not json`, http.StatusBadRequest},
		{``, http.StatusBadRequest},
		{`[{"client_id":"x","sql":"SELECT 1"}`, http.StatusBadRequest},
	} {
		if code, _ := postBody(t, ts.URL+"/v1/events", tc.body); code != tc.want {
			t.Fatalf("body %q: status %d, want %d", tc.body, code, tc.want)
		}
	}

	if code, _ := get(t, ts.URL+"/v1/alerts?status=bogus"); code != http.StatusBadRequest {
		t.Fatal("bogus status filter must 400")
	}
	if code, _ := resolve(t, ts.URL, 999, `{"verdict":"confirmed"}`); code != http.StatusNotFound {
		t.Fatal("unknown alert id must 404")
	}
	if code, _ := postBody(t, ts.URL+"/v1/alerts/abc/resolve", `{}`); code != http.StatusBadRequest {
		t.Fatalf("non-numeric alert id: %d, want 400", code)
	}
}

// TestServeHTTPBatchPerEventStatuses checks the batched-submission
// contract: every event in an array is attempted, the response carries
// one status per event in submission order, and the valid events land
// even when the batch also carries rejected ones. Single-object
// submissions carry no per-event list.
func TestServeHTTPBatchPerEventStatuses(t *testing.T) {
	svc, ts := oneTenant(t, trainModel(t, "va"), serve.Config{Workers: 1, QueueSize: 64})

	// A mixed batch: two valid events around one with no SQL.
	code, body := postBody(t, ts.URL+"/v1/events",
		`[{"client_id":"c","user":"app","sql":"SELECT 1"},{"client_id":"c"},{"client_id":"c","user":"app","sql":"SELECT 2"}]`)
	var er EventsResponse
	json.Unmarshal([]byte(body), &er)
	if code != http.StatusBadRequest {
		t.Fatalf("mixed batch status = %d, want 400", code)
	}
	if er.Accepted != 2 || len(er.Events) != 3 {
		t.Fatalf("mixed batch response %+v, want accepted=2 with 3 statuses", er)
	}
	if er.Events[0].Status != "accepted" || er.Events[2].Status != "accepted" {
		t.Fatalf("valid events not accepted: %+v", er.Events)
	}
	if er.Events[1].Status != "rejected" || er.Events[1].Code != CodeInvalidEvent {
		t.Fatalf("invalid event not rejected with reason: %+v", er.Events[1])
	}
	if got := svc.Stats().EventsAccepted; got != 2 {
		t.Fatalf("events accepted = %d, want 2 (rejection must not shadow later events)", got)
	}

	// Single-object shape: no per-event list.
	code, body = postBody(t, ts.URL+"/v1/events", `{"client_id":"c","user":"app","sql":"SELECT 3"}`)
	var raw map[string]json.RawMessage
	json.Unmarshal([]byte(body), &raw)
	if code != http.StatusAccepted || string(raw["accepted"]) != "1" {
		t.Fatalf("single object: %d %v", code, raw)
	}
	if _, ok := raw["events"]; ok {
		t.Fatal("single-object response must not carry a per-event status list")
	}

	// A sequenced event must name the epoch its seq counts within.
	code, body = postBody(t, ts.URL+"/v1/events", `[{"client_id":"c","user":"app","sql":"SELECT 4","seq":4}]`)
	if env := envelopeOf(t, body); code != http.StatusBadRequest || env.Code != CodeInvalidEvent || env.Retryable {
		t.Fatalf("seq without epoch: %d %+v", code, env)
	}

	// A stopped service rejects the whole batch as retryable: 503 with
	// every event rejected.
	svc.Stop()
	code, body = postBody(t, ts.URL+"/v1/events", `[{"client_id":"c","user":"app","sql":"SELECT 4"}]`)
	er = EventsResponse{}
	json.Unmarshal([]byte(body), &er)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stopped batch status = %d, want 503", code)
	}
	if er.Accepted != 0 || len(er.Events) != 1 || er.Events[0].Status != "rejected" {
		t.Fatalf("stopped batch response %+v", er)
	}
}

// TestErrorInfoFor pins the error table: every failure mode maps to a
// stable machine-readable code and status, only the transient ones are
// marked retryable, and an error the table does not list is a
// retryable 500 — never a "drop it" 400.
func TestErrorInfoFor(t *testing.T) {
	for _, tc := range []struct {
		err       error
		status    int
		code      string
		retryable bool
	}{
		{serve.ErrBusy, 503, CodeBackpressure, true},
		{serve.ErrStopped, 503, CodeShuttingDown, true},
		{serve.ErrNotReady, 503, CodeNotReady, true},
		{serve.ErrInvalid, 400, CodeInvalidEvent, false},
		{serve.ErrSessionOpen, 409, CodeSessionOpen, false},
		{serve.ErrNoAlert, 404, CodeUnknownAlert, false},
		{serve.ErrNotReplica, 409, CodeNotReplica, false},
		{ErrUnknownTenant, 404, CodeUnknownTenant, false},
		{ErrInvalidID, 404, CodeUnknownTenant, false},
		{ErrDraining, 503, CodeTenantDraining, true},
		{ErrRegistryClosed, 503, CodeShuttingDown, true},
		{ErrTenantExists, 409, CodeTenantExists, false},
		{ErrInvalidModel, 400, CodeInvalidModel, false},
		{errors.New("disk on fire"), 500, CodeInternal, true},
		{fmt.Errorf("wrapped: %w", serve.ErrBusy), 503, CodeBackpressure, true},
	} {
		status, info := classify(tc.err)
		if status != tc.status || info.Code != tc.code || info.Retryable != tc.retryable {
			t.Errorf("classify(%v) = %d {%s retryable=%v}, want %d {%s retryable=%v}",
				tc.err, status, info.Code, info.Retryable, tc.status, tc.code, tc.retryable)
		}
		if info.Message == "" {
			t.Errorf("classify(%v): empty message", tc.err)
		}
	}
	// Backpressure additionally sets Retry-After on the wire.
	rec := httptest.NewRecorder()
	writeErr(rec, serve.ErrBusy)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("backpressure response: %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// envelopeOf decodes the {"error":{...}} envelope out of a response
// body, failing the test when it is absent or malformed — or when the
// body still carries a pre-envelope field: a top-level "code" mirror or
// a per-event "error" string.
func envelopeOf(t *testing.T, body string) ErrorInfo {
	t.Helper()
	var eb struct {
		Error  *ErrorInfo                   `json:"error"`
		Code   json.RawMessage              `json:"code"`
		Events []map[string]json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == nil {
		t.Fatalf("response carries no error envelope: %q (err=%v)", body, err)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("incomplete envelope in %q", body)
	}
	if eb.Code != nil {
		t.Fatalf("legacy top-level code field in %q", body)
	}
	for _, ev := range eb.Events {
		if _, ok := ev["error"]; ok {
			t.Fatalf("legacy per-event error string in %q", body)
		}
	}
	return *eb.Error
}

// TestEnvelopeGoldenEndpoints walks every single-tenant endpoint's
// failure modes and asserts each non-2xx response carries the envelope
// with the documented code and retryable bit, and nothing older.
func TestEnvelopeGoldenEndpoints(t *testing.T) {
	clk := newFakeClock()
	svc, ts := oneTenant(t, trainModel(t, "va"),
		serve.Config{Workers: 2, QueueSize: 256, IdleTimeout: 10 * time.Minute, Clock: clk.Now})

	check := func(method, path, body string, wantStatus int, wantCode string, wantRetryable bool) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d (%s)", method, path, resp.StatusCode, wantStatus, raw)
		}
		env := envelopeOf(t, string(raw))
		if env.Code != wantCode || env.Retryable != wantRetryable {
			t.Fatalf("%s %s: envelope {%s retryable=%v}, want {%s retryable=%v}",
				method, path, env.Code, env.Retryable, wantCode, wantRetryable)
		}
	}

	// POST /v1/events — body-level and event-level rejections.
	check("POST", "/v1/events", `not json`, http.StatusBadRequest, CodeInvalidBody, false)
	check("POST", "/v1/events", `{"client_id":"x"}`, http.StatusBadRequest, CodeInvalidEvent, false)
	check("POST", "/v1/events", `[{"client_id":"x"}]`, http.StatusBadRequest, CodeInvalidEvent, false)
	check("POST", "/v1/events", `{"client_id":"x","sql":"SELECT 1","seq":1}`, http.StatusBadRequest, CodeInvalidEvent, false)

	// GET /v1/alerts — bad filter.
	check("GET", "/v1/alerts?status=bogus", "", http.StatusBadRequest, CodeInvalidBody, false)

	// POST /v1/alerts/{id}/resolve — malformed id, unknown id, and a body
	// past the cap (the decoder must not read it to the end).
	check("POST", "/v1/alerts/abc/resolve", `{}`, http.StatusBadRequest, CodeInvalidBody, false)
	check("POST", "/v1/alerts/999/resolve", `{"verdict":"confirmed"}`, http.StatusNotFound, CodeUnknownAlert, false)
	check("POST", "/v1/alerts/999/resolve", `{"verdict":"`+strings.Repeat("x", maxAdminBody)+`"}`,
		http.StatusBadRequest, CodeInvalidBody, false)

	// Raise a real alert to drive the session_open / unknown_verdict /
	// unknown_alert sequence.
	for pos := 0; pos < 12; pos++ {
		sql := normalStatement("va", pos)
		if pos == 6 {
			sql = anomalySQL
		}
		if err := svc.Ingest(serve.Event{ClientID: "attacker", User: "app", SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Drain()
	alerts := svc.Alerts(serve.StatusOpen)
	if len(alerts) != 1 {
		t.Fatalf("open alerts = %d, want 1", len(alerts))
	}
	resolvePath := fmt.Sprintf("/v1/alerts/%d/resolve", alerts[0].ID)

	check("POST", resolvePath, `{"verdict":"confirmed"}`, http.StatusConflict, CodeSessionOpen, false)
	clk.Advance(11 * time.Minute)
	svc.CloseIdleNow()
	check("POST", resolvePath, `{"verdict":"maybe"}`, http.StatusBadRequest, CodeUnknownVerdict, false)
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := postBody(t, ts.URL+resolvePath, `{"verdict":"confirmed"}`); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}
	check("POST", resolvePath, `{"verdict":"confirmed"}`, http.StatusNotFound, CodeUnknownAlert, false)

	// Shutdown: every further ingest is a retryable shutting_down.
	svc.Stop()
	check("POST", "/v1/events", `{"client_id":"x","user":"u","sql":"SELECT 1"}`, http.StatusServiceUnavailable, CodeShuttingDown, true)
	// Batch shape: the envelope rides the batch response alongside the
	// per-event codes.
	code, body := postBody(t, ts.URL+"/v1/events", `[{"client_id":"x","user":"u","sql":"SELECT 1"}]`)
	var er EventsResponse
	json.Unmarshal([]byte(body), &er)
	if env := envelopeOf(t, body); code != http.StatusServiceUnavailable || env.Code != CodeShuttingDown || !env.Retryable {
		t.Fatalf("stopped batch envelope: %d %+v", code, env)
	}
	if len(er.Events) != 1 || er.Events[0].Code != CodeShuttingDown || !er.Events[0].Retryable {
		t.Fatalf("stopped batch per-event status: %+v", er.Events)
	}
}

// TestEnvelopeNotReady: a durable pipeline answers retryable not_ready
// until Restore has replayed its WAL shards, and /metrics exports the
// WAL families after it. (Create only publishes restored tenants, so
// the unrestored one is planted by hand.)
func TestEnvelopeNotReady(t *testing.T) {
	reg := New(Options{})
	svc := serve.NewService(trainModel(t, "va"), serve.Config{
		Workers: 1, SweepEvery: -1, Metrics: reg.Hub().Tenant(serve.DefaultTenant),
		Durability: &serve.DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncAlways},
	})
	defer svc.Stop()
	reg.tenants[serve.DefaultTenant] = &Tenant{id: serve.DefaultTenant, svc: svc}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	event := `{"client_id":"x","user":"u","sql":"SELECT 1"}`
	code, body := postBody(t, ts.URL+"/v1/events", event)
	if env := envelopeOf(t, body); code != http.StatusServiceUnavailable || env.Code != CodeNotReady || !env.Retryable {
		t.Fatalf("pre-Restore ingest: %d %+v", code, env)
	}

	if _, err := svc.Restore(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if code, body := postBody(t, ts.URL+"/v1/events", event); code != http.StatusAccepted {
			t.Fatalf("post-Restore ingest: %d %s", code, body)
		}
	}
	svc.Drain()
	_, exposition := get(t, ts.URL+"/metrics")
	for _, family := range []string{
		`ucad_wal_appends_total{tenant="default"} 3`,
		`ucad_wal_fsync_seconds_count{tenant="default"}`,
		"ucad_wal_segment_bytes",
		`ucad_wal_recovered_sessions{tenant="default"} 0`,
		"ucad_snapshot_seconds",
	} {
		if !strings.Contains(exposition, family) {
			t.Fatalf("/metrics missing %q", family)
		}
	}
}

// scrapeMetrics GETs a /metrics endpoint and parses every sample line
// into series → value ("name{labels}" keys keep their label string).
func scrapeMetrics(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, body
}

// dt labels a series with the default tenant — a single-tenant
// deployment is the default tenant of a one-tenant hub.
func dt(name string) string { return name + `{tenant="default"}` }

// TestServiceMetricsScrapeEndToEnd is the observability acceptance
// path: events stream in over HTTP, the worker pool scores them, and a
// /metrics scrape must show the stage-latency histograms populated with
// counts matching the pipeline's own accounting — and agree with
// /stats, since both read the same counters.
func TestServiceMetricsScrapeEndToEnd(t *testing.T) {
	u := trainModel(t, "va")
	clk := newFakeClock()
	svc, ts := oneTenant(t, u, serve.Config{
		Workers:     2,
		QueueSize:   256,
		Batch:       4,
		IdleTimeout: 10 * time.Minute,
		Clock:       clk.Now,
	})

	const clients, opsPerClient = 4, 12
	for pos := 0; pos < opsPerClient; pos++ {
		for c := 0; c < clients; c++ {
			sql := normalStatement("va", pos)
			if c == 0 && pos == 6 {
				sql = anomalySQL
			}
			resp, _ := postJSON(t, ts.URL+"/v1/events", serve.Event{ClientID: fmt.Sprintf("c%d", c), User: "app", SQL: sql})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("ingest status %d", resp.StatusCode)
			}
		}
	}
	svc.Drain()

	m, body := scrapeMetrics(t, ts.URL+"/metrics")

	// The exposition must carry all three family types.
	for _, want := range []string{
		"# TYPE ucad_events_accepted_total counter",
		"# TYPE ucad_sessions_open gauge",
		"# TYPE ucad_score_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	events := float64(clients * opsPerClient)
	scored := float64(clients * (opsPerClient - u.Model.Config().MinContext))
	checks := map[string]float64{
		dt("ucad_events_accepted_total"):    events,
		dt("ucad_ingest_seconds_count"):     events,
		dt("ucad_ops_scored_total"):         scored,
		dt("ucad_queue_wait_seconds_count"): scored,
		dt("ucad_score_batch_size_sum"):     scored, // batch sizes sum to jobs drained
		dt("ucad_sessions_open"):            clients,
		dt("ucad_sessions_opened_total"):    clients,
		dt("ucad_flags_mid_session_total"):  1,
		dt("ucad_alerts_open"):              1,
		dt("ucad_alerts_raised_total"):      1,
		dt("ucad_events_rejected_total"):    0,
		dt("ucad_ops_rejected_total"):       0,
		dt("ucad_retrains_total"):           0,
	}
	for series, want := range checks {
		got, ok := m[series]
		if !ok {
			t.Fatalf("series %s missing from scrape", series)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", series, got, want)
		}
	}
	// The score histogram observes fused micro-batches, not jobs: one
	// sample per drain, between 1 (everything fused) and scored (no
	// fusion), and exactly one batch-size sample per timed pass.
	passes := m[dt("ucad_score_seconds_count")]
	if passes < 1 || passes > scored {
		t.Fatalf("score_seconds_count = %v, want in [1, %v]", passes, scored)
	}
	if got := m[dt("ucad_score_batch_size_count")]; got != passes {
		t.Fatalf("score_batch_size_count = %v, want %v (one per fused pass)", got, passes)
	}
	// Latency histograms carry real (positive) time.
	for _, series := range []string{dt("ucad_ingest_seconds_sum"), dt("ucad_score_seconds_sum")} {
		if m[series] <= 0 {
			t.Fatalf("%s = %v, want > 0", series, m[series])
		}
	}
	// Cumulative bucket counts must reach the +Inf bucket.
	if m[`ucad_score_seconds_bucket{tenant="default",le="+Inf"}`] != passes {
		t.Fatalf("score +Inf bucket = %v, want %v", m[`ucad_score_seconds_bucket{tenant="default",le="+Inf"}`], passes)
	}

	// Close out every session and confirm the alert: the close-out
	// histogram and the verdict-labelled counter populate.
	clk.Advance(11 * time.Minute)
	if n := svc.CloseIdleNow(); n != clients {
		t.Fatalf("closed %d, want %d", n, clients)
	}
	alerts := svc.Alerts(serve.StatusOpen)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if err := svc.Resolve(alerts[0].ID, serve.StatusConfirmed); err != nil {
		t.Fatal(err)
	}

	m, _ = scrapeMetrics(t, ts.URL+"/metrics")
	if m[dt("ucad_closeout_seconds_count")] != clients {
		t.Fatalf("closeout count = %v, want %d", m[dt("ucad_closeout_seconds_count")], clients)
	}
	if m[`ucad_alerts_resolved_total{tenant="default",verdict="confirmed"}`] != 1 {
		t.Fatal("confirmed verdict not counted")
	}
	if m[dt("ucad_sessions_closed_total")] != clients || m[dt("ucad_sessions_processed_total")] != clients {
		t.Fatalf("session close-out counters: closed=%v processed=%v",
			m[dt("ucad_sessions_closed_total")], m[dt("ucad_sessions_processed_total")])
	}
	if m[dt("ucad_verified_pool")] != clients-1 {
		t.Fatalf("verified pool = %v, want %d", m[dt("ucad_verified_pool")], clients-1)
	}

	// /stats and /metrics read the same counters — spot-check the pairs.
	st := svc.Stats()
	pairs := []struct {
		series string
		stat   float64
	}{
		{dt("ucad_events_accepted_total"), float64(st.EventsAccepted)},
		{dt("ucad_ops_scored_total"), float64(st.OpsScored)},
		{dt("ucad_ops_rejected_total"), float64(st.OpsRejected)},
		{dt("ucad_sessions_open"), float64(st.SessionsOpen)},
		{dt("ucad_alerts_raised_total"), float64(st.AlertsRaised)},
		{dt("ucad_alerts_evicted_total"), float64(st.AlertsEvicted)},
		{dt("ucad_uptime_seconds"), st.UptimeSeconds},
	}
	for _, p := range pairs {
		if m[p.series] != p.stat {
			t.Fatalf("%s = %v but Stats reports %v", p.series, m[p.series], p.stat)
		}
	}
	if st.UptimeSeconds != (11 * time.Minute).Seconds() {
		t.Fatalf("uptime = %v, want %v (fake clock advanced 11m)", st.UptimeSeconds, (11 * time.Minute).Seconds())
	}
	svc.Stop()
}
