package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func putBody(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestHTTPModelHotSwap drives PUT /v1/tenants/{id}/model end to end:
// a valid upload swaps the serving model without dropping the tenant,
// the swap surfaces in stats and the tenant-labelled metric, and the
// failure modes answer the error envelope.
func TestHTTPModelHotSwap(t *testing.T) {
	clk := newFakeClock()
	root := t.TempDir()
	modelPath := filepath.Join(root, "a.model")
	saveModel(t, trainModel(t, "va"), modelPath)

	reg := New(durableOptions(clk, root))
	defer reg.Close(context.Background())
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts.URL+"/v1/tenants", Spec{ID: "web", ModelPath: modelPath}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	ev := func(prefix string, pos int) map[string]string {
		return map[string]string{"client_id": "c1", "user": "app", "sql": normalStatement(prefix, pos), "tenant": "web"}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/events", ev("va", 0)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-swap ingest = %d: %s", resp.StatusCode, body)
	}

	// Swap in a model trained on a different workload.
	swapPath := filepath.Join(root, "b.model")
	saveModel(t, trainModel(t, "vb"), swapPath)
	swapBytes, err := os.ReadFile(swapPath)
	if err != nil {
		t.Fatal(err)
	}
	code, body := putBody(t, ts.URL+"/v1/tenants/web/model", swapBytes)
	if code != http.StatusOK {
		t.Fatalf("model swap = %d: %s", code, body)
	}
	var info Info
	if err := json.Unmarshal([]byte(body), &info); err != nil || info.ID != "web" {
		t.Fatalf("swap response: %s (err=%v)", body, err)
	}

	// The session survives the swap: the next event continues client c1's
	// open session against the new vocabulary.
	if resp, body := postJSON(t, ts.URL+"/v1/events", ev("vb", 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-swap ingest = %d: %s", resp.StatusCode, body)
	}
	webT, _ := reg.Get("web")
	webT.Service().Drain()
	if st := webT.Stats(); st.ModelSwaps != 1 || st.EventsAccepted != 2 || st.SessionsOpen != 1 {
		t.Fatalf("post-swap stats: %+v", st)
	}

	// Stats JSON carries the swap counter and the retrain queue position.
	sresp, err := http.Get(ts.URL + "/v1/tenants/web/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var st struct {
		ModelSwaps           int64 `json:"model_swaps"`
		RetrainQueuePosition int   `json:"retrain_queue_position"`
	}
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.ModelSwaps != 1 || st.RetrainQueuePosition != 0 {
		t.Fatalf("stats: %s", sbody)
	}
	if !strings.Contains(string(sbody), "retrain_queue_position") {
		t.Fatalf("stats missing retrain_queue_position: %s", sbody)
	}

	// The swap counter is exported per tenant.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `ucad_model_swaps_total{tenant="web"} 1`) {
		t.Fatal("/metrics missing ucad_model_swaps_total for web")
	}

	// A body that is not a model must not disturb the serving model.
	code, body = putBody(t, ts.URL+"/v1/tenants/web/model", []byte("not a model"))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage swap = %d: %s", code, body)
	}
	if env := envelopeOf(t, body); env.Code != CodeInvalidModel || env.Retryable {
		t.Fatalf("garbage swap envelope: %+v", env)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/events", ev("vb", 2)); resp.StatusCode != http.StatusAccepted {
		t.Fatal("serving model was disturbed by a rejected upload")
	}
	if st := webT.Stats(); st.ModelSwaps != 1 {
		t.Fatalf("rejected upload bumped the swap counter: %d", st.ModelSwaps)
	}

	// Unknown tenant answers the structured 404.
	code, body = putBody(t, ts.URL+"/v1/tenants/ghost/model", swapBytes)
	if code != http.StatusNotFound || !strings.Contains(body, CodeUnknownTenant) {
		t.Fatalf("ghost swap = %d: %s", code, body)
	}

	// Draining: both ingest and swap answer the retryable envelope.
	if resp, _ := postJSON(t, ts.URL+"/v1/tenants/web/drain", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatal("drain failed")
	}
	resp, ebody := postJSON(t, ts.URL+"/v1/events", ev("vb", 3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained ingest = %d", resp.StatusCode)
	}
	var er struct {
		Err *ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(ebody, &er); err != nil || er.Err == nil ||
		er.Err.Code != CodeTenantDraining || !er.Err.Retryable {
		t.Fatalf("drained ingest envelope: %s", ebody)
	}
	code, body = putBody(t, ts.URL+"/v1/tenants/web/model", swapBytes)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, CodeTenantDraining) {
		t.Fatalf("drained swap = %d: %s", code, body)
	}
}
