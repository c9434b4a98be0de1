package serve

import "contention/internal/obs"

// Serving telemetry. Request/response tallies are labelled families so
// the run manifest can break traffic down by kind and outcome; batch
// size and latency are histograms on the shared default buckets.
var (
	mRequests = obs.NewCounterVec(obs.MetricServeRequests,
		"prediction requests received, by kind", "kind")
	mResponses = obs.NewCounterVec(obs.MetricServeResponses,
		"prediction responses sent, by outcome", "outcome")
	mDegraded = obs.NewCounter(obs.MetricServeDegraded,
		"responses answered with the conservative p+1 fallback")
	mBatches = obs.NewCounter(obs.MetricServeBatches,
		"micro-batch flushes executed")
	mBatchSize = obs.NewHistogram(obs.MetricServeBatchSize,
		"requests per micro-batch flush", obs.DefaultSizeBuckets())
	mQueueDepthMax = obs.NewGauge(obs.MetricServeQueueDepthMax,
		"high-water mark of the batcher queue depth")
	mRequestSeconds = obs.NewHistogram(obs.MetricServeRequestSeconds,
		"end-to-end request latency in seconds", obs.DefaultSecondsBuckets())
)

// The labelled series the hot path records, resolved once: a family's
// With takes its mutex and looks the label up on every call. The kinds
// are the two a decoded query carries; the outcomes are outcomeOf's.
var (
	mRequestsComm = mRequests.With("comm")
	mRequestsComp = mRequests.With("comp")

	mOutcomeOK         = mResponses.With("ok")
	mOutcomeBadRequest = mResponses.With("bad_request")
	mOutcomeRejected   = mResponses.With("rejected")
	mOutcomeTimeout    = mResponses.With("timeout")
	mOutcomeClosed     = mResponses.With("closed")
	mOutcomeModelError = mResponses.With("model_error")
)

// requestsOf is the requests-by-kind series of a decoded query's kind.
func requestsOf(kind string) *obs.Counter {
	if kind == "comm" {
		return mRequestsComm
	}
	return mRequestsComp
}
