// Balancer-side request tracing, per-stage latency attribution, and
// the request-id / SLO plumbing for the front door.
//
// The router's pipeline has three stages worth attributing: decode
// (body read + JSON parse + batch-key derivation), route (candidate
// selection, attempts, failover, hedging — everything between admission
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
	"net/http"
	"time"

	"contention/internal/obs"
	"contention/internal/serve"
)

// Per-stage latency attribution for the router pipeline.
var mLBStageSeconds = obs.NewHistogramVec(obs.MetricClusterStageSeconds,
	"per-stage router latency in seconds", "stage", obs.DefaultSecondsBuckets())

var (
	lbStDecode = mLBStageSeconds.With("decode")
	lbStRoute  = mLBStageSeconds.With("route")
	lbStEncode = mLBStageSeconds.With("encode")
)

var mTraceSampled = obs.NewCounter(obs.MetricTraceSampled,
	"requests that carried or started a sampled trace")

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
	// (serve.BatchKeyOf); each attempt splices its own trace context in.
	rec []byte
}

// lbTrace is one sampled request's tracing handle on the balancer; a
// nil *lbTrace is the unsampled case and every method no-ops.
type lbTrace struct {
	root *obs.Span
	tc   obs.TraceContext
}

// requestTrace decides the balancer's trace participation: an incoming
// X-Contention-Trace header is honored verbatim (including a negative
// sampling verdict); only headless requests consult the sampler. The
// returned context (valid whenever the request belongs to any trace,
// sampled or not) is what attempts must propagate downstream.
func (c *Cluster) requestTrace(r *http.Request) (*lbTrace, obs.TraceContext) {
	tc, ok := obs.ParseTraceContext(r.Header.Get(serve.TraceHeader))
	if !ok {
		if !c.cfg.Sampler.Sample() {
			return nil, obs.TraceContext{}
		}
		tc = obs.NewRootContext(true)
	}
	if !tc.Sampled {
		return nil, tc
	}
	root, child := obs.DefaultTracer().StartCtx("lb", "request", tc)
	if root == nil {
		return nil, tc // telemetry disabled: propagate, record nothing
	}
	mTraceSampled.Inc()
	return &lbTrace{root: root, tc: child}, child
}

// stage promotes one timed pipeline stage to a child span of the
// request root. The histograms are observed by the caller either way.
func (lt *lbTrace) stage(name string, start, end time.Time) {
	if lt == nil {
		return
	}
	obs.DefaultTracer().RecordSpan("lb", name, obs.SinceStart(start), obs.SinceStart(end), lt.tc)
}

// end closes the root request span.
func (lt *lbTrace) end() {
	if lt != nil {
		lt.root.End()
	}
}

// recordSLO feeds one finished front-door request into the SLO tracker.
// Client faults (malformed requests, vanished clients, upstream 4xx)
// burn no server error budget and are excluded from both SLIs.
func (c *Cluster) recordSLO(start time.Time, failed, clientFault bool) {
	if c.cfg.SLO == nil || clientFault {
		return
	}
	c.cfg.SLO.Record(time.Since(start).Seconds(), !failed)
}
