package cluster

import "contention/internal/obs"

// Router telemetry: failover re-sends and routed request latency. The
// fleet's state (members, restarts, breakers, suspicion, SLO status) is
// served as JSON on /healthz and /debug/fleet rather than as series.
var (
	mRetries = obs.NewCounter(obs.MetricClusterRetries,
		"failover re-sends after a retryable replica failure")
	mRouteSeconds = obs.NewHistogram(obs.MetricClusterRouteSeconds,
		"end-to-end routed request latency in seconds", obs.DefaultSecondsBuckets())
)
