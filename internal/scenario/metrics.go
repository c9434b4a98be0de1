package scenario

import "contention/internal/obs"

// Scenario telemetry. Arrival counts are labelled by cohort so the run
// manifest can show which population generated the load; the trace and
// replay counters feed the scenario manifest section.
var (
	mArrivals = obs.NewCounterVec(obs.MetricScenarioArrivals,
		"scheduled arrivals generated, by cohort", "cohort")
	mTraceWrites = obs.NewCounter(obs.MetricScenarioTraceWrites,
		"trace records written")
	mTraceReads = obs.NewCounter(obs.MetricScenarioTraceReads,
		"trace records read back")
	mReplayDiffs = obs.NewCounter(obs.MetricScenarioReplayDiffs,
		"replayed responses that differed from the recorded ones")
)

// CountReplayMismatch tallies one replayed response that failed to
// reproduce its recorded value or status. VerifyReplay counts its own;
// this is for the DES-clocked replay, which compares two passes of
// predicted values instead of served outcomes.
func CountReplayMismatch() { mReplayDiffs.Inc() }
