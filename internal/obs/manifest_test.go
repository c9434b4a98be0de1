package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenManifest builds a fully deterministic manifest from the shared
// golden registry plus fixed header fields (timestamps deliberately
// left empty — they are the only nondeterministic fields).
func goldenManifest(t *testing.T) *Manifest {
	t.Helper()
	r := goldenRegistry(t)
	m := NewManifest("experiments")
	m.Config = map[string]string{"parallel": "true", "workers": "4", "only": ""}
	m.Calibration = &CalibrationInfo{Platform: "sun-paragon", Version: "in-memory", Trust: "fresh"}
	m.FaultSeeds = []int64{96}
	m.Drivers = []DriverReport{{ID: "figure5", WallSeconds: 0.25}, {ID: "figure6", WallSeconds: 0.5}}
	m.Pool = &PoolReport{Workers: 4}
	m.Spans = []SpanRecord{{Actor: "driver", Name: "figure5", Start: 1, End: 1.25}}
	m.FillFromSnapshot(r.Snapshot())
	return m
}

// TestManifestGolden pins the manifest JSON schema; the `make check`
// gate depends on this test by name.
func TestManifestGolden(t *testing.T) {
	m := goldenManifest(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "manifest.golden", data)
}

func TestManifestSchemaVersioned(t *testing.T) {
	m := goldenManifest(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema": "`+ManifestSchema+`"`) {
		t.Fatalf("manifest missing schema version:\n%s", data)
	}
	if _, err := (&Manifest{}).Encode(); err == nil {
		t.Fatal("schema-less manifest encoded without error")
	}
}

func TestManifestFillDerivesSummaries(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter(MetricPoolTasks, "").Add(10)
	r.Counter(MetricPoolAsync, "").Add(6)
	r.Counter(MetricPoolInline, "").Add(4)
	r.Gauge(MetricPoolMaxInFlight, "").SetMax(3)
	r.Counter(MetricPredictComm, "").Add(10)
	r.Counter(MetricPredictDegraded, "").Add(1)
	r.CounterVec(MetricFaultsInjected, "", "kind").With("link-drop").Add(5)
	r.Counter(MetricMonitorDropped, "").Add(7)
	r.Counter(MetricDriftAlarms, "").Inc()

	m := NewManifest("experiments")
	m.Pool = &PoolReport{Workers: 2}
	m.FillFromSnapshot(r.Snapshot())

	if m.Pool.Tasks != 10 || m.Pool.Async != 6 || m.Pool.Inline != 4 || m.Pool.Workers != 2 {
		t.Fatalf("pool = %+v", m.Pool)
	}
	if m.Pool.Utilization != 0.6 {
		t.Fatalf("utilization = %v, want 0.6", m.Pool.Utilization)
	}
	if m.Pool.MaxInFlight != 3 {
		t.Fatalf("max in flight = %d", m.Pool.MaxInFlight)
	}
	if m.Predictions.Comm != 10 || m.Predictions.Degraded != 1 {
		t.Fatalf("predictions = %+v", m.Predictions)
	}
	if m.Faults["link-drop"] != 5 {
		t.Fatalf("faults = %v", m.Faults)
	}
	if m.Reliability.MonitorDropped != 7 || m.Reliability.DriftAlarms != 1 {
		t.Fatalf("reliability = %+v", m.Reliability)
	}
	if len(m.Metrics) == 0 {
		t.Fatal("snapshot not embedded")
	}
}

func TestManifestWriteReadRoundtrip(t *testing.T) {
	m := goldenManifest(t)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Command != "experiments" || got.Schema != ManifestSchema {
		t.Fatalf("roundtrip header = %+v", got)
	}
	if len(got.Metrics) != len(m.Metrics) || got.Predictions.Comm != m.Predictions.Comm {
		t.Fatal("roundtrip lost metrics")
	}
	// No temp litter from the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("unexpected files after atomic write: %v", entries)
	}
}
