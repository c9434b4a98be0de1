// Balancer-side per-stage latency attribution and the per-request
// state the front door threads to the hop.
//
// The router's pipeline has three stages worth attributing: decode
// (body read, parse and validation into the binary record), route (the
// pick, attempts, failover, hedging — everything between admission
// and the first byte of an answer), and encode (writing the response).
// Each is observed into cluster_stage_seconds on every request; sampled
// requests additionally produce an "lb" span tree — a request root, one
// child span per stage, and one child span per attempt — whose trace
// context is spliced into the trace block of the record the attempt
// forwards, so the chosen replica's own spans parent into the same
// trace. One sampled request
// through the balancer therefore yields a single connected timeline:
//
//	lb/request
//	├── lb/decode
//	├── lb/route
//	│   └── lb/attempt            (one per try; hedges included)
//	│       └── serve/request     (on the replica)
//	│           ├── serve/decode ... serve/encode
//	└── lb/encode
package cluster

import (
	"time"

	"contention/internal/obs"
)

// Per-stage latency attribution for the router pipeline.
var mLBStageSeconds = obs.NewHistogramVec(obs.MetricClusterStageSeconds,
	"per-stage router latency in seconds", "stage", obs.DefaultSecondsBuckets())

var (
	lbStDecode = mLBStageSeconds.With("decode")
	lbStRoute  = mLBStageSeconds.With("route")
	lbStEncode = mLBStageSeconds.With("encode")
)

// reqMeta threads per-request state from the front door through
// route/attempt to the outgoing frame: the request deadline, the request
// id to forward, the trace context attempts should parent their spans
// to, and the request's binary record.
type reqMeta struct {
	deadline time.Time
	rid      string
	tc       obs.TraceContext
	// contentType is the client's request wire format: a binary client
	// gets the replica's binary record back verbatim, any other the JSON
	// it transcodes to; empty means JSON.
	contentType string
	// rec is the request as a binary record without a trace block
	// (serve.RecordOf); each attempt splices its own trace context in.
	rec []byte
}
