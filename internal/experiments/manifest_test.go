package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"contention/internal/obs"
	"contention/internal/runner"
)

// TestBuildManifestFromRun is the end-to-end telemetry check: a full
// suite run with recording on must produce a manifest whose summary
// sections are nonzero and internally consistent — prediction tallies,
// pool utilization from a parallel pool, one driver report per suite
// driver — and the manifest must survive a write/read round trip.
func TestBuildManifestFromRun(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })

	e := env(t).WithPool(runner.New(2))
	if _, err := All(e); err != nil {
		t.Fatal(err)
	}
	m := BuildManifest(e, "experiments-test", map[string]string{"parallel": "true"})
	if m.Schema != obs.ManifestSchema {
		t.Fatalf("schema %q, want %q", m.Schema, obs.ManifestSchema)
	}

	if m.Predictions == nil || m.Predictions.Comm == 0 || m.Predictions.Comp == 0 {
		t.Fatalf("prediction tallies not recorded: %+v", m.Predictions)
	}

	if m.Pool == nil || m.Pool.Workers != 2 {
		t.Fatalf("pool workers = %+v, want 2", m.Pool)
	}
	if m.Pool.Tasks == 0 || m.Pool.Tasks != m.Pool.Inline+m.Pool.Async {
		t.Fatalf("pool task split inconsistent: %+v", m.Pool)
	}
	if m.Pool.Async < 1 || m.Pool.Utilization <= 0 || m.Pool.Utilization > 1 {
		t.Fatalf("2-worker pool recorded no async work: %+v", m.Pool)
	}
	if m.Pool.Utilization != float64(m.Pool.Async)/float64(m.Pool.Tasks) {
		t.Fatalf("utilization %v ≠ async/tasks (%d/%d)", m.Pool.Utilization, m.Pool.Async, m.Pool.Tasks)
	}

	// Every core driver must have a span-derived wall-time report.
	want := []string{"table1-2", "table3", "table4", "figure1", "figure2",
		"figure3", "figure4", "figure5", "figure6", "figure7", "figure8"}
	got := map[string]bool{}
	for _, d := range m.Drivers {
		if d.WallSeconds < 0 {
			t.Fatalf("driver %s has negative wall time %v", d.ID, d.WallSeconds)
		}
		got[d.ID] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Fatalf("driver %s missing from manifest (have %v)", id, m.Drivers)
		}
	}
	if len(m.Spans) < len(want) {
		t.Fatalf("span log has %d entries, want ≥ %d", len(m.Spans), len(want))
	}
	if len(m.FaultSeeds) == 0 {
		t.Fatal("fault seeds missing")
	}
	if m.Calibration == nil || m.Calibration.Trust != "fresh" {
		t.Fatalf("calibration info %+v, want fresh trust", m.Calibration)
	}

	// The summary must agree with the embedded snapshot it was derived
	// from.
	snap := obs.Snapshot{Metrics: m.Metrics}
	if comm := snap.Counter(obs.MetricPredictComm); comm != m.Predictions.Comm {
		t.Fatalf("summary comm predictions %d ≠ snapshot %d", m.Predictions.Comm, comm)
	}
	if tasks := snap.Counter(obs.MetricPoolTasks); tasks != m.Pool.Tasks {
		t.Fatalf("summary pool tasks %d ≠ snapshot %d", m.Pool.Tasks, tasks)
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Pool.Tasks != m.Pool.Tasks || back.Predictions.Comm != m.Predictions.Comm {
		t.Fatalf("round trip changed the manifest: %+v vs %+v", back.Pool, m.Pool)
	}
}
