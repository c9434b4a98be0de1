package surface

import "contention/internal/obs"

// Build telemetry. Per-lookup hit/miss tallies live in
// internal/core (the Try fast path observes them), since the Predictor
// is the component that decides whether a query reaches the surface.
var (
	mBuilds = obs.NewCounter(obs.MetricSurfaceBuilds,
		"slowdown surfaces precomputed")
	mFills = obs.NewCounter(obs.MetricSurfaceFills,
		"grid nodes evaluated via the batched DP at build time")
)
