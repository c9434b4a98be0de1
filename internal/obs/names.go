package obs

// Canonical metric names. They live here, in the leaf package, so the
// instrumented packages and their readers agree on one naming table
// without importing each other. Conventions follow Prometheus:
// snake_case, a subsystem prefix, `_total` on counters, base units
// (seconds, bytes) in the name.
//
// Every name here has a reader outside the call that registers it: the
// run manifest (FillFromSnapshot), a bench metric, the fleet page or
// loadgen's -stages report. A series nothing reads is not declared;
// TestEverySeriesHasAReader (make deadapi) holds the table to that, and
// DESIGN §5c lists each series with its reader.
const (
	// internal/core — the prediction hot path. Nothing registers the
	// four MetricCache* names since the slowdown memo was removed; they
	// stay declared because bench/run.go reads them and bench/ is frozen.
	MetricCacheCommHits   = "core_cache_comm_hits_total"
	MetricCacheCommMisses = "core_cache_comm_misses_total"
	MetricCacheCompHits   = "core_cache_comp_hits_total"
	MetricCacheCompMisses = "core_cache_comp_misses_total"
	MetricPredictComm     = "core_predict_comm_total"
	MetricPredictComp     = "core_predict_comp_total"
	MetricPredictDegraded = "core_predict_degraded_total"

	// internal/core — lookups of the precomputed slowdown surface that
	// replaces the DP on the steady-state hot path.
	MetricSurfaceHits   = "surface_hits_total"   // label: kind (comm | comp)
	MetricSurfaceMisses = "surface_misses_total" // label: kind

	// internal/runner — the shared worker pool.
	MetricPoolTasks       = "runner_tasks_total"
	MetricPoolInline      = "runner_tasks_inline_total"
	MetricPoolAsync       = "runner_tasks_async_total"
	MetricPoolMaxInFlight = "runner_tasks_in_flight_max"

	// internal/caltrust — the calibration trust layer.
	MetricDriftAlarms = "caltrust_drift_alarms_total"

	// internal/faults — the simulated fault injector.
	MetricFaultsInjected = "faults_injected_total" // label: kind

	// internal/monitor — run-time workload estimation.
	MetricMonitorDropped  = "monitor_samples_dropped_total"
	MetricMonitorRejected = "monitor_samples_rejected_total"

	// internal/serve — the online prediction daemon.
	MetricServeRequests       = "serve_requests_total"  // label: kind
	MetricServeResponses      = "serve_responses_total" // label: outcome
	MetricServeDegraded       = "serve_degraded_total"
	MetricServeBatches        = "serve_batches_total"
	MetricServeBatchSize      = "serve_batch_size"
	MetricServeQueueDepthMax  = "serve_queue_depth_max"
	MetricServeRequestSeconds = "serve_request_seconds"

	// internal/cluster — the replica fleet's router.
	MetricClusterRetries      = "cluster_retries_total" // failover re-sends after a retryable failure
	MetricClusterSpills       = "cluster_spills_total"  // no longer recorded since routing is by load; kept because bench/run.go reads it
	MetricClusterRouteSeconds = "cluster_route_seconds"

	// internal/serve + internal/cluster — per-stage latency attribution
	// (the observability plane). One histogram per pipeline stage.
	MetricServeStageSeconds   = "serve_stage_seconds"   // label: stage (decode | admission | batch-wait | compute | surface | encode)
	MetricClusterStageSeconds = "cluster_stage_seconds" // label: stage (decode | route | encode)
)
