package obs

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRegistry builds the deterministic registry the exposition and
// manifest golden tests share.
func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("core_predict_comm_total", "communication cost predictions evaluated").Add(42)
	v := r.CounterVec("faults_injected_total", "injected fault events", "kind")
	v.With("link-drop").Add(3)
	v.With("host-stall").Inc()
	r.Gauge("runner_tasks_in_flight", "tasks currently executing").SetMax(2.5)
	h := r.Histogram("runner_task_seconds", "task wall seconds", []float64{0.001, 0.1, 1})
	for _, x := range []float64{0.0005, 0.05, 0.05, 5} {
		h.Observe(x)
	}
	return r
}

// checkGolden compares got against the named testdata file;
// UPDATE_GOLDEN=1 rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(want) != string(got) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestPrometheusExpositionGolden pins the text exposition format: the
// `make check` gate depends on this test by name.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := goldenRegistry(t)
	checkGolden(t, "exposition.golden", []byte(r.PrometheusText()))
}

func TestExpositionShape(t *testing.T) {
	r := goldenRegistry(t)
	text := r.PrometheusText()
	for _, want := range []string{
		"# TYPE core_predict_comm_total counter",
		"core_predict_comm_total 42",
		`faults_injected_total{kind="link-drop"} 3`,
		"# TYPE runner_task_seconds histogram",
		`runner_task_seconds_bucket{le="+Inf"} 4`,
		"runner_task_seconds_sum 5.1005",
		"runner_task_seconds_count 4",
		"runner_tasks_in_flight 2.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// One header per family, even with several labelled series.
	if got := strings.Count(text, "# TYPE faults_injected_total"); got != 1 {
		t.Fatalf("family header repeated %d times", got)
	}
}

func TestHistogramBucketMergesLabels(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Histogram(`lat_seconds{op="send"}`, "", []float64{1}).Observe(0.5)
	text := r.PrometheusText()
	if !strings.Contains(text, `lat_seconds_bucket{op="send",le="1"} 1`) {
		t.Fatalf("labelled histogram buckets malformed:\n%s", text)
	}
	if !strings.Contains(text, `lat_seconds_sum{op="send"} 0.5`) {
		t.Fatalf("labelled histogram sum malformed:\n%s", text)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := goldenRegistry(t)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if string(body) != r.PrometheusText() {
		t.Fatal("handler body differs from PrometheusText")
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-3, "-3"}, {2.5, "2.5"}, {0.001, "0.001"}, {1e16, "1e+16"},
	} {
		if got := formatValue(tc.in); got != tc.want {
			t.Fatalf("formatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
