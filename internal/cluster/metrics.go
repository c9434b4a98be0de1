package cluster

import "contention/internal/obs"

// Cluster telemetry. Request outcomes are a labelled family so the run
// manifest can break router traffic down the same way serve does;
// supervision events (restarts, abandonments, breaker transitions) are
// the self-healing audit trail.
var (
	mRequests = obs.NewCounterVec(obs.MetricClusterRequests,
		"routed requests, by outcome", "outcome")
	mRetries = obs.NewCounter(obs.MetricClusterRetries,
		"failover re-sends after a retryable replica failure")
	mHedges = obs.NewCounter(obs.MetricClusterHedges,
		"hedged second requests launched for tail-latency protection")
	mRestarts = obs.NewCounter(obs.MetricClusterRestarts,
		"replica respawns performed by the supervisor")
	mAbandoned = obs.NewCounter(obs.MetricClusterAbandoned,
		"replicas abandoned after exhausting the crash-loop budget")
	mReplicasUp = obs.NewGauge(obs.MetricClusterReplicasUp,
		"replicas currently up and in the routing set")
	mRouteSeconds = obs.NewHistogram(obs.MetricClusterRouteSeconds,
		"end-to-end routed request latency in seconds", obs.DefaultSecondsBuckets())

	// Multi-host membership and failure detection.
	mSuspects = obs.NewCounter(obs.MetricClusterSuspects,
		"remote members suspected: no successful probe within the suspicion deadline")
	mRejoins = obs.NewCounter(obs.MetricClusterRejoins,
		"suspect members readmitted to the routing set after a successful probe")
	mMembersAdded = obs.NewCounter(obs.MetricClusterMembersAdded,
		"remote members joined to the fleet")
	mClientGone = obs.NewCounter(obs.MetricClusterClientGone,
		"attempts abandoned because the requesting client vanished")
	mReloads = obs.NewCounterVec(obs.MetricClusterReloads,
		"membership file reloads, by outcome", "outcome")

	// Fleet metrics aggregation (the /debug/fleet scraper).
	mFleetScrapes = obs.NewCounter(obs.MetricFleetScrapes,
		"fleet metrics scrape rounds attempted")
	mFleetScrapeErrors = obs.NewCounter(obs.MetricFleetScrapeErrors,
		"member metrics pages that failed to fetch or parse")
	mFleetMembersSeen = obs.NewGauge(obs.MetricFleetMembersSeen,
		"members whose metrics the last scrape round captured")
	mFleetScrapeSeconds = obs.NewHistogram(obs.MetricFleetScrapeSeconds,
		"wall time per fleet scrape round in seconds", obs.DefaultSecondsBuckets())
)
