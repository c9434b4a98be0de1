package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestSchema versions the run-manifest JSON layout. Bump on any
// breaking field change; consumers must check it before parsing deeper.
const ManifestSchema = "contention/run-manifest/v1"

// CalibrationInfo records which calibration a run predicted from and
// whether it was trusted at exit.
type CalibrationInfo struct {
	Platform string `json:"platform"`
	// Version is the persistence-layer version string when the
	// calibration came from a caltrust store ("in-memory" otherwise).
	Version string `json:"version,omitempty"`
	// Trust is the trust state at exit: fresh / stale / degraded.
	Trust string `json:"trust,omitempty"`
	// StaleReason carries the predictor's staleness reason, if any.
	StaleReason string `json:"stale_reason,omitempty"`
	// FatalViolations counts fatal validation findings at adoption.
	FatalViolations int `json:"fatal_violations,omitempty"`
}

// DriverReport is one experiment driver's wall time.
type DriverReport struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
}

// PoolReport summarizes the runner pool over the run.
type PoolReport struct {
	Workers     int   `json:"workers"`
	Tasks       int64 `json:"tasks"`
	Inline      int64 `json:"inline"`
	Async       int64 `json:"async"`
	MaxInFlight int64 `json:"max_in_flight"`
	// Utilization is the fraction of tasks that ran on a helper
	// goroutine holding a pool token (the rest ran inline on the
	// goroutine that called Map).
	Utilization float64 `json:"utilization"`
}

// PredictionReport tallies predictor activity.
type PredictionReport struct {
	Comm     int64 `json:"comm"`
	Comp     int64 `json:"comp"`
	Degraded int64 `json:"degraded"`
}

// ReliabilityReport tallies the retry/timeout/degradation machinery.
type ReliabilityReport struct {
	DriftAlarms     int64 `json:"drift_alarms,omitempty"`
	MonitorDropped  int64 `json:"monitor_dropped,omitempty"`
	MonitorRejected int64 `json:"monitor_rejected,omitempty"`
}

// ServingReport summarizes the prediction daemon's request handling:
// traffic volume, outcome mix, micro-batching efficiency, and queue
// pressure.
type ServingReport struct {
	Requests map[string]int64 `json:"requests,omitempty"` // by kind
	Outcomes map[string]int64 `json:"outcomes,omitempty"` // ok / 4xx class / timeout / rejected
	Degraded int64            `json:"degraded,omitempty"`
	Batches  int64            `json:"batches"`
	// BatchedRequests is the number of requests that went through the
	// batcher; BatchedRequests/Batches is the amortization factor.
	BatchedRequests int64   `json:"batched_requests"`
	MeanBatchSize   float64 `json:"mean_batch_size,omitempty"`
	MaxQueueDepth   int64   `json:"max_queue_depth,omitempty"`
}

// ScenarioCell is one cell of the scenario sweep matrix: a (scenario,
// wire format, serving mode) combination with its smoke-run
// measurements and replay-verification outcome.
type ScenarioCell struct {
	Scenario         string  `json:"scenario"`
	Wire             string  `json:"wire"`
	Mode             string  `json:"mode"`
	Requests         int     `json:"requests"`
	ReqPerSec        float64 `json:"req_per_sec"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	BatchedPct       float64 `json:"batched_pct"`
	FastPct          float64 `json:"fast_pct"`
	ReplayMismatches int     `json:"replay_mismatches"`
}

// ScenarioReport summarizes a scenario sweep: every executed cell plus
// the matrix-wide replay totals.
type ScenarioReport struct {
	Cells      []ScenarioCell `json:"cells"`
	Replayed   int            `json:"replayed_requests"`
	Mismatches int            `json:"mismatches"`
}

// Manifest is the schema-versioned record a command writes at the end
// of a run: what was configured, what calibration was trusted, what the
// machine actually did. Maps marshal with sorted keys and the embedded
// snapshot is sorted by series name, so two identical runs produce
// byte-identical manifests (timestamps excepted, and omitted when
// unset).
type Manifest struct {
	Schema  string `json:"schema"`
	Command string `json:"command"`
	// StartedAt is RFC3339 wall time; left empty in golden tests.
	StartedAt   string  `json:"started_at,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`

	Config      map[string]string  `json:"config,omitempty"`
	Calibration *CalibrationInfo   `json:"calibration,omitempty"`
	FaultSeeds  []int64            `json:"fault_seeds,omitempty"`
	Drivers     []DriverReport     `json:"drivers,omitempty"`
	Pool        *PoolReport        `json:"pool,omitempty"`
	Predictions *PredictionReport  `json:"predictions,omitempty"`
	Faults      map[string]int64   `json:"faults,omitempty"`
	Reliability *ReliabilityReport `json:"reliability,omitempty"`
	Serving     *ServingReport     `json:"serving,omitempty"`
	// Scenario is the sweep report when the run executed the scenario
	// matrix; stamped by the command, never derived from the snapshot.
	Scenario *ScenarioReport `json:"scenario,omitempty"`
	// SLO is the objective tracker's state at exit (burn rates over both
	// windows, breach verdict); absent when no SLO was configured.
	SLO *SLOStatus `json:"slo,omitempty"`

	// Spans is the span log (virtual or wall clock, per tracer).
	Spans []SpanRecord `json:"spans,omitempty"`
	// Metrics embeds the full registry snapshot, the source of truth
	// the summary sections above were derived from.
	Metrics []MetricSnapshot `json:"metrics,omitempty"`
}

// NewManifest starts a manifest for a command.
func NewManifest(command string) *Manifest {
	return &Manifest{Schema: ManifestSchema, Command: command}
}

// FillFromSnapshot derives the summary sections (pool, predictions,
// faults, reliability) from a registry snapshot using the
// canonical metric names, and embeds the snapshot itself. Sections
// whose counters never moved are filled with zeros rather than omitted,
// so consumers can rely on their presence.
func (m *Manifest) FillFromSnapshot(s Snapshot) {
	m.Metrics = s.Metrics

	tasks := s.Counter(MetricPoolTasks)
	async := s.Counter(MetricPoolAsync)
	pool := &PoolReport{
		Tasks:       tasks,
		Inline:      s.Counter(MetricPoolInline),
		Async:       async,
		MaxInFlight: int64(s.Gauge(MetricPoolMaxInFlight)),
	}
	if tasks > 0 {
		pool.Utilization = float64(async) / float64(tasks)
	}
	if m.Pool != nil {
		pool.Workers = m.Pool.Workers
	}
	m.Pool = pool

	m.Predictions = &PredictionReport{
		Comm:     s.Counter(MetricPredictComm),
		Comp:     s.Counter(MetricPredictComp),
		Degraded: s.Counter(MetricPredictDegraded),
	}

	faults := map[string]int64{}
	for kind, n := range s.Labelled(MetricFaultsInjected) {
		faults[kind] = int64(n)
	}
	if len(faults) > 0 {
		m.Faults = faults
	}

	// The serving section only appears when the daemon actually handled
	// traffic — batch experiment manifests stay unchanged.
	if batches := s.Counter(MetricServeBatches); batches > 0 || len(s.Labelled(MetricServeRequests)) > 0 {
		srv := &ServingReport{
			Batches:       batches,
			Degraded:      s.Counter(MetricServeDegraded),
			MaxQueueDepth: int64(s.Gauge(MetricServeQueueDepthMax)),
		}
		if reqs := s.Labelled(MetricServeRequests); len(reqs) > 0 {
			srv.Requests = map[string]int64{}
			for kind, n := range reqs {
				srv.Requests[kind] = int64(n)
			}
		}
		if outs := s.Labelled(MetricServeResponses); len(outs) > 0 {
			srv.Outcomes = map[string]int64{}
			for outcome, n := range outs {
				srv.Outcomes[outcome] = int64(n)
			}
		}
		for _, ms := range s.Metrics {
			if ms.Name == MetricServeBatchSize {
				srv.BatchedRequests = int64(ms.Sum)
				if ms.Count > 0 {
					srv.MeanBatchSize = ms.Sum / float64(ms.Count)
				}
			}
		}
		m.Serving = srv
	}

	m.Reliability = &ReliabilityReport{
		DriftAlarms:     s.Counter(MetricDriftAlarms),
		MonitorDropped:  s.Counter(MetricMonitorDropped),
		MonitorRejected: s.Counter(MetricMonitorRejected),
	}
}

// Encode renders the manifest as indented JSON with a trailing newline.
func (m *Manifest) Encode() ([]byte, error) {
	if m.Schema == "" {
		return nil, fmt.Errorf("obs: manifest missing schema version")
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: encoding manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// Write atomically writes the manifest to path (temp file + rename, so
// a crashed run never leaves a truncated manifest behind).
func (m *Manifest) Write(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*.json")
	if err != nil {
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	return nil
}

// ReadManifest loads and schema-checks a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("obs: %s: schema %q, want %q", path, m.Schema, ManifestSchema)
	}
	return &m, nil
}
