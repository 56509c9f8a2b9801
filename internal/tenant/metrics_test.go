package tenant

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ucad/ucad/internal/replica"
)

// wireServeMetrics builds in process the metrics surface `ucad-serve
// -data-dir` exposes: the hub and the replica families on one registry,
// two durable tenants ("t" and "u") with one event each, and one file
// of tenant "t" shipped through the replication endpoint.
func wireServeMetrics(t *testing.T) *Registry {
	t.Helper()
	root := t.TempDir()
	opts := durableOptions(newFakeClock(), root)
	opts.Serve.Shards = 2 // the default follows GOMAXPROCS
	reg := New(opts)
	t.Cleanup(func() { reg.Close(context.Background()) })
	shipper := &replica.Shipper{
		Root:    filepath.Join(root, "tenants"),
		Metrics: replica.NewMetrics(reg.Hub().Registry),
	}
	u := trainModel(t, "va")
	for _, id := range []string{"t", "u"} {
		if _, err := reg.CreateFromModel(Spec{ID: id}, cloneUCAD(t, u)); err != nil {
			t.Fatal(err)
		}
		ingestN(t, reg, id, "c1", "va", 1)
	}
	rec := httptest.NewRecorder()
	shipper.Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/v1/replica/file?tenant=t&path="+specFile, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ship %s = %d: %s", specFile, rec.Code, rec.Body)
	}
	return reg
}

// strippedExposition scrapes GET /metrics and drops every sample value,
// keeping each HELP and TYPE line and each series name with its labels.
func strippedExposition(t *testing.T, reg *Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		if i := strings.LastIndexByte(line, ' '); i >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:i]
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.String()
}

// TestServeExpositionGolden pins every family header and series name of
// the ucad-serve metrics surface; only sample values may change.
func TestServeExpositionGolden(t *testing.T) {
	got := strippedExposition(t, wireServeMetrics(t))
	const golden = "testdata/serve_exposition.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end>"
	}
	for i := 0; i < max(len(wantLines), len(gotLines)); i++ {
		if w, g := at(wantLines, i), at(gotLines, i); w != g {
			t.Fatalf("%s line %d:\n want %s\n  got %s", golden, i+1, w, g)
		}
	}
}

// TestDeleteDropsEveryTenantSeries: deleting a tenant removes its series
// from every family on the shared registry — the replica families
// included — and leaves the sibling tenant's.
func TestDeleteDropsEveryTenantSeries(t *testing.T) {
	reg := wireServeMetrics(t)
	if err := reg.Delete("t"); err != nil {
		t.Fatal(err)
	}
	got := strippedExposition(t, reg)
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, `tenant="t"`) {
			t.Errorf("deleted tenant's series still exposed: %s", line)
		}
	}
	for _, series := range []string{
		`ucad_events_accepted_total{tenant="u"}`,
		`ucad_shard_queue_depth{tenant="u",shard="1"}`,
	} {
		if !strings.Contains(got, series+"\n") {
			t.Errorf("sibling series %s gone", series)
		}
	}
}
