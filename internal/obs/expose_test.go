package obs

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry covering every family type, label
// escaping, and float formatting corner the writer emits.
func goldenRegistry() *Registry {
	r := NewRegistry()

	c := r.Counter("app_requests_total", "Total requests handled.")
	c.Add(1234)

	cv := r.CounterVec("app_errors_total", "Errors by class.", "class")
	cv.With("timeout").Add(3)
	cv.With(`quote"back\slash`).Inc() // label-value escaping
	cv.With("multi\nline").Inc()

	g := r.Gauge("app_temperature_celsius", "Current temperature.")
	g.Set(36.6)

	gv := r.GaugeVec("app_pool_size", "Pool sizes.", "pool", "shard")
	gv.With("scoring", "0").Set(4)
	gv.With("scoring", "1").Set(8)

	r.GaugeFunc("app_uptime_seconds", "Seconds since start.", func() float64 { return 12.5 })

	h := r.Histogram("app_latency_seconds", "Latency with a backslash \\ and\nnewline in help.", []float64{0.025, 0.1, 0.5})
	for _, v := range []float64{0.01, 0.02, 0.09, 0.3, 2} {
		h.Observe(v)
	}

	hv := r.HistogramVec("app_stage_seconds", "Per-stage latency.", []float64{0.1, 1}, "stage")
	hv.With("ingest").Observe(0.05)
	hv.With("score").Observe(0.5)
	hv.With("score").Observe(3)

	r.Counter("app_unhelped_total", "") // no HELP line
	return r
}

func TestExpositionGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden file (run `go test ./internal/obs -update` after intentional changes)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	var a, b strings.Builder
	r := goldenRegistry()
	r.WriteText(&a)
	r.WriteText(&b)
	if a.String() != b.String() {
		t.Fatal("two scrapes of the same state differ")
	}
}

func TestHandlerContentType(t *testing.T) {
	srv := httptest.NewServer(goldenRegistry().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentType)
	}
}
