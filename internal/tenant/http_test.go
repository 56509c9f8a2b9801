package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// TestHTTPRoutingAndAdmin drives the full multi-tenant HTTP surface:
// admin CRUD, event routing by body field / header / query, the
// structured unknown_tenant 404, per-tenant stats, and tenant-labelled
// metrics (including label removal on delete).
func TestHTTPRoutingAndAdmin(t *testing.T) {
	clk := newFakeClock()
	root := t.TempDir()
	modelPath := filepath.Join(root, "m.model")
	saveModel(t, trainModel(t, "va"), modelPath)

	reg := New(durableOptions(clk, root))
	defer reg.Close(context.Background())
	// The default tenant backs the unchanged single-tenant API.
	if _, err := reg.CreateFromModel(Spec{}, trainModel(t, "vd")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	// Admin create over HTTP.
	resp, body := postJSON(t, ts.URL+"/v1/tenants", Spec{ID: "web", ModelPath: modelPath})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var created Info
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID != "web" || created.Model != modelPath {
		t.Fatalf("created info: %+v", created)
	}
	// Duplicate create answers 409.
	if resp, _ := postJSON(t, ts.URL+"/v1/tenants", Spec{ID: "web", ModelPath: modelPath}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create = %d, want 409", resp.StatusCode)
	}

	// Routing: body field, header, query — each lands in "web".
	ev := func(pos int) map[string]string {
		return map[string]string{"client_id": "c1", "user": "app", "sql": normalStatement("va", pos)}
	}
	withTenant := ev(0)
	withTenant["tenant"] = "web"
	if resp, body := postJSON(t, ts.URL+"/v1/events", withTenant); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("body-routed ingest = %d: %s", resp.StatusCode, body)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/events", strings.NewReader(mustJSON(t, ev(1))))
	req.Header.Set(TenantHeader, "web")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("header-routed ingest = %d", hr.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/events?tenant=web", ev(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("query-routed ingest = %d", resp.StatusCode)
	}
	// No tenant anywhere → default tenant.
	if resp, _ := postJSON(t, ts.URL+"/v1/events", map[string]string{"client_id": "d1", "user": "app", "sql": normalStatement("vd", 0)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("default-routed ingest = %d", resp.StatusCode)
	}

	// Unknown tenant: structured 404 with the machine-readable code.
	ghost := ev(0)
	ghost["tenant"] = "ghost"
	resp, body = postJSON(t, ts.URL+"/v1/events", ghost)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d, want 404", resp.StatusCode)
	}
	var er EventsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Err == nil ||
		er.Err.Code != CodeUnknownTenant || er.Err.Message == "" || er.Err.Retryable {
		t.Fatalf("unknown-tenant response: %+v", er)
	}

	// Mixed-tenant batch: the good event is absorbed, the bad one is
	// rejected with a per-event code, and the batch code surfaces it.
	good := ev(3)
	good["tenant"] = "web"
	resp, body = postJSON(t, ts.URL+"/v1/events", []map[string]string{good, ghost})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("mixed batch = %d, want 404", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Accepted != 1 || len(er.Events) != 2 ||
		er.Events[0].Status != "accepted" ||
		er.Events[1].Status != "rejected" || er.Events[1].Code != CodeUnknownTenant {
		t.Fatalf("mixed batch response: %+v", er)
	}

	// Per-tenant stats see exactly web's events (3 routed + 1 batch).
	webT, _ := reg.Get("web")
	webT.Service().Drain()
	sresp, err := http.Get(ts.URL + "/v1/tenants/web/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var st struct {
		EventsAccepted int64 `json:"events_accepted"`
	}
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.EventsAccepted != 4 {
		t.Fatalf("web events_accepted = %d, want 4: %s", st.EventsAccepted, sbody)
	}

	// List shows both tenants sorted by id.
	lresp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	lbody, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	var infos []Info
	if err := json.Unmarshal(lbody, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != "default" || infos[1].ID != "web" {
		t.Fatalf("list: %s", lbody)
	}

	// The shared exposition carries both tenants' labelled series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{
		`ucad_events_accepted_total{tenant="default"} 1`,
		`ucad_events_accepted_total{tenant="web"} 4`,
		`ucad_ingest_seconds_count{tenant="web"}`,
	} {
		if !strings.Contains(string(mbody), series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}

	// Drain quiesces: further events answer 503.
	if dresp, _ := postJSON(t, ts.URL+"/v1/tenants/web/drain", struct{}{}); dresp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d", dresp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/events", withTenant); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained ingest = %d, want 503", resp.StatusCode)
	}

	// Delete removes the tenant, its routing, and its metric series.
	dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/tenants/web", nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", dresp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/events", withTenant); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-delete ingest = %d, want 404", resp.StatusCode)
	}
	mresp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ = io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if strings.Contains(string(mbody), `tenant="web"`) {
		t.Fatal("deleted tenant's series still exported")
	}
	if !strings.Contains(string(mbody), `tenant="default"`) {
		t.Fatal("default tenant's series disappeared")
	}
}

// seriesValue reads one series' value off a /metrics body.
func seriesValue(t *testing.T, url, series string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// TestHTTPMixedTenantBatchCommit: one array mixing two durable tenants,
// an invalid event and an unknown tenant still answers one status per
// event in submission order; each tenant's events keep their submission
// order within its session and cost that tenant one fsync per touched
// stream for the whole request; and everything the response accepted
// survives a hard kill.
func TestHTTPMixedTenantBatchCommit(t *testing.T) {
	clk := newFakeClock()
	root := t.TempDir()
	opts := durableOptions(clk, root)
	opts.Serve.Shards = 1 // one WAL stream per tenant: exact fsync counts
	reg := New(opts)
	prefixes := map[string]string{"alpha": "va", "beta": "vb"}
	for id, prefix := range prefixes {
		path := filepath.Join(root, id+".model")
		saveModel(t, trainModel(t, prefix), path)
		if _, err := reg.Create(Spec{ID: id, ModelPath: path}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	ev := func(tenant, prefix string, pos int) map[string]string {
		return map[string]string{"tenant": tenant, "client_id": "c1", "user": "app", "sql": normalStatement(prefix, pos)}
	}
	fsyncs := func(id string) float64 {
		return seriesValue(t, ts.URL, `ucad_wal_fsync_seconds_count{tenant="`+id+`"}`)
	}
	alpha0, beta0 := fsyncs("alpha"), fsyncs("beta")
	resp, body := postJSON(t, ts.URL+"/v1/events", []map[string]string{
		ev("alpha", "va", 0),
		ev("beta", "vb", 0),
		ev("alpha", "va", 1),
		{"tenant": "alpha", "client_id": "c1"}, // no sql
		ev("ghost", "va", 0),
		ev("beta", "vb", 1),
		ev("alpha", "va", 2),
	})
	var er EventsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	want := []EventStatus{
		{Status: "accepted"}, {Status: "accepted"}, {Status: "accepted"},
		{Status: "rejected", Code: CodeInvalidEvent},
		{Status: "rejected", Code: CodeUnknownTenant},
		{Status: "accepted"}, {Status: "accepted"},
	}
	if resp.StatusCode != http.StatusBadRequest || er.Accepted != 5 || !reflect.DeepEqual(er.Events, want) {
		t.Fatalf("mixed batch = %d %s", resp.StatusCode, body)
	}
	if a, b := fsyncs("alpha")-alpha0, fsyncs("beta")-beta0; a != 1 || b != 1 {
		t.Fatalf("request cost alpha %v and beta %v fsyncs, want 1 each", a, b)
	}
	// Hard kill: no Close. Everything the response accepted comes back,
	// in submission order.
	reg2 := New(opts)
	if err := reg2.Boot(nil); err != nil {
		t.Fatal(err)
	}
	defer reg2.Close(context.Background())
	for id, n := range map[string]int{"alpha": 3, "beta": 2} {
		tn, err := reg2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		sessions := tn.Service().ExportSessions()
		if len(sessions) != 1 || len(sessions[0].Ops) != n {
			t.Fatalf("%s restored %+v, want one session of %d ops", id, sessions, n)
		}
		for pos, op := range sessions[0].Ops {
			if op.SQL != normalStatement(prefixes[id], pos) {
				t.Fatalf("%s op %d = %q: submission order lost", id, pos, op.SQL)
			}
		}
	}
}

// TestHTTPSingleTenantSurfaceUnchanged: the pre-multi-tenant endpoints
// (/v1/alerts, /stats, /healthz) keep working against the default
// tenant, and the per-tenant alert surface mirrors them.
func TestHTTPSingleTenantSurfaceUnchanged(t *testing.T) {
	clk := newFakeClock()
	reg := New(Options{Serve: testServeConfig(clk)})
	defer reg.Close(context.Background())
	if _, err := reg.CreateFromModel(Spec{}, trainModel(t, "va")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	// An anomaly mid-session raises an alert on the default tenant.
	for pos := 0; pos < 8; pos++ {
		sql := normalStatement("va", pos)
		if pos == 5 {
			sql = anomalySQL
		}
		resp, body := postJSON(t, ts.URL+"/v1/events", map[string]string{"client_id": "c1", "user": "app", "sql": sql})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
		}
	}
	dflt, _ := reg.Get("")
	dflt.Service().Drain()

	for _, path := range []string{"/v1/alerts", "/v1/tenants/default/alerts"} {
		resp, err := http.Get(ts.URL + path + "?status=open")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		var alerts struct {
			Alerts []map[string]any `json:"alerts"`
		}
		if err := json.Unmarshal(body, &alerts); err != nil {
			t.Fatal(err)
		}
		if len(alerts.Alerts) != 1 {
			t.Fatalf("GET %s alerts = %s", path, body)
		}
	}
	for _, path := range []string{"/healthz", "/stats", "/v1/tenants/default/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	// Unknown-tenant admin lookups answer the structured 404 too.
	resp, err := http.Get(ts.URL + "/v1/tenants/ghost/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), CodeUnknownTenant) {
		t.Fatalf("ghost stats = %d: %s", resp.StatusCode, body)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
