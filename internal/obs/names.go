package obs

// Canonical metric names. They live here, in the leaf package, so the
// instrumented packages and the manifest builder agree on one naming
// table without importing each other. Conventions follow Prometheus:
// snake_case, a subsystem prefix, `_total` on counters, base units
// (seconds, bytes) in the name.
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
	MetricPredictBatch    = "core_predict_batch_size"

	// internal/core + internal/surface — the precomputed slowdown
	// surface that replaces the DP on the steady-state hot path.
	MetricSurfaceHits          = "surface_hits_total"   // label: kind (comm | comp)
	MetricSurfaceMisses        = "surface_misses_total" // label: kind
	MetricSurfaceFills         = "surface_fills_total"  // grid nodes evaluated at build time
	MetricSurfaceBuilds        = "surface_builds_total"
	MetricSurfaceInvalidations = "surface_invalidations_total"
	MetricSurfaceRevalidations = "surface_revalidations_total"

	// internal/runner — the shared worker pool.
	MetricPoolTasks       = "runner_tasks_total"
	MetricPoolInline      = "runner_tasks_inline_total"
	MetricPoolAsync       = "runner_tasks_async_total"
	MetricPoolInFlight    = "runner_tasks_in_flight"
	MetricPoolMaxInFlight = "runner_tasks_in_flight_max"
	MetricPoolTaskSeconds = "runner_task_seconds"

	// internal/caltrust — the calibration trust layer.
	MetricDriftAlarms      = "caltrust_drift_alarms_total"
	MetricTrustTransitions = "caltrust_transitions_total" // label: to
	MetricResidualsSeen    = "caltrust_residuals_total"

	// internal/faults — the simulated fault injector.
	MetricFaultsInjected = "faults_injected_total" // label: kind

	// internal/monitor — run-time workload estimation.
	MetricMonitorAccepted = "monitor_samples_accepted_total"
	MetricMonitorDropped  = "monitor_samples_dropped_total"
	MetricMonitorRejected = "monitor_samples_rejected_total"

	// internal/experiments — per-driver wall time.
	MetricDriverSeconds = "experiments_driver_seconds" // label: driver

	// internal/serve — the online prediction daemon.
	MetricServeRequests       = "serve_requests_total"  // label: kind
	MetricServeResponses      = "serve_responses_total" // label: outcome
	MetricServeDegraded       = "serve_degraded_total"
	MetricServeBatches        = "serve_batches_total"
	MetricServeBatchSize      = "serve_batch_size"
	MetricServeQueueDepth     = "serve_queue_depth"
	MetricServeQueueDepthMax  = "serve_queue_depth_max"
	MetricServeRequestSeconds = "serve_request_seconds"
	MetricServeFlushSeconds   = "serve_flush_seconds"

	// internal/serve — the binary wire format and the batcher-bypass
	// fast path for surface-resident keys.
	MetricServeBinaryRequests = "serve_binary_requests_total"
	MetricServeFastHits       = "serve_fastpath_hits_total"
	MetricServeFastMisses     = "serve_fastpath_misses_total"

	// internal/cluster — the self-healing replica fleet and its router.
	MetricClusterRequests     = "cluster_requests_total"            // label: outcome
	MetricClusterRetries      = "cluster_retries_total"             // failover re-sends after a retryable failure
	MetricClusterSpills       = "cluster_spills_total"              // load-aware departures from the ring primary
	MetricClusterHedges       = "cluster_hedges_total"              // hedged second requests launched
	MetricClusterRestarts     = "cluster_restarts_total"            // replica respawns by the supervisor
	MetricClusterAbandoned    = "cluster_abandoned_total"           // replicas given up on (crash-loop budget)
	MetricClusterBreakerTrans = "cluster_breaker_transitions_total" // label: to
	MetricClusterReplicasUp   = "cluster_replicas_up"
	MetricClusterRouteSeconds = "cluster_route_seconds"

	// internal/serve + internal/cluster — per-stage latency attribution
	// (the observability plane). One histogram per pipeline stage.
	MetricServeStageSeconds   = "serve_stage_seconds"   // label: stage (decode | admission | batch-wait | compute | surface | encode)
	MetricClusterStageSeconds = "cluster_stage_seconds" // label: stage (decode | route | encode)

	// internal/obs — trace sampling and the SLO plane.
	MetricTraceSampled       = "trace_sampled_total"
	MetricSLOLatencyBurnFast = "slo_latency_burn_fast"
	MetricSLOLatencyBurnSlow = "slo_latency_burn_slow"
	MetricSLOAvailBurnFast   = "slo_availability_burn_fast"
	MetricSLOAvailBurnSlow   = "slo_availability_burn_slow"
	MetricSLOBreach          = "slo_breach"

	// internal/cluster — the fleet metrics scraper behind /debug/fleet.
	MetricFleetScrapes       = "fleet_scrapes_total"
	MetricFleetScrapeErrors  = "fleet_scrape_errors_total"
	MetricFleetMembersSeen   = "fleet_members_scraped"
	MetricFleetScrapeSeconds = "fleet_scrape_seconds"

	// internal/scenario — arrival-process generation and trace
	// record/replay.
	MetricScenarioArrivals     = "scenario_arrivals_total" // label: cohort
	MetricScenarioTraceWrites  = "scenario_trace_records_written_total"
	MetricScenarioTraceReads   = "scenario_trace_records_read_total"
	MetricScenarioReplayDiffs  = "scenario_replay_mismatches_total"
	MetricScenarioSweepCells   = "scenario_sweep_cells_total"
	MetricScenarioSweepRequest = "scenario_sweep_requests_total"

	// internal/cluster — multi-host membership and failure detection.
	MetricClusterSuspects     = "cluster_suspects_total"           // remote members suspected by the failure detector
	MetricClusterRejoins      = "cluster_rejoins_total"            // suspect members readmitted after a heartbeat
	MetricClusterMembersAdded = "cluster_members_added_total"      // remote members joined via AddRemote
	MetricClusterClientGone   = "cluster_client_gone_total"        // attempts abandoned because the client vanished
	MetricClusterReloads      = "cluster_membership_reloads_total" // label: outcome (applied | unchanged | error)
)
