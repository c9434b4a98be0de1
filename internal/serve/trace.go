// Request tracing and per-stage latency attribution.
//
// Every request — sampled or not — times its pipeline stages (decode,
// admission, batch-wait, compute/surface, encode) into per-stage
// histograms, so aggregate attribution is always available: when p99
// moves, the stage histograms say whether the time went to the codec,
// the admission gate, batch rendezvous, or the model itself. This
// mirrors the paper's methodology of decomposing total execution time
// into per-resource contention terms, applied to the serving path.
//
// Sampled requests additionally produce a span tree on the process-wide
// tracer: a "request" root span plus one child span per stage, all
// carrying the trace id from the obs.TraceContext that arrived with the
// request (HTTP header or binary trace block) or was minted by the
// server's head sampler. The unsampled path allocates nothing: the
// request trace handle (obs.RequestTrace) is a nil pointer and every
// method on it no-ops.
package serve

import "contention/internal/obs"

// TraceHeader carries the compact trace context (16-hex trace id,
// 16-hex parent span id, 2-hex flags, dash-separated — see
// obs.ParseTraceContext) across process hops. The binary wire format
// can carry the same context in-band via its trace flag; when both are
// present the in-band block wins.
const TraceHeader = "X-Contention-Trace"

// RequestIDHeader names the request-correlation header: echoed back
// when the client sent one, minted by the server on error responses so
// every failure is correlatable even for clients that did not ask.
const RequestIDHeader = "X-Request-Id"

// Per-stage latency attribution, one histogram per pipeline stage.
var mStageSeconds = obs.NewHistogramVec(obs.MetricServeStageSeconds,
	"per-stage request latency in seconds", "stage", obs.DefaultSecondsBuckets())

var (
	stDecode    = mStageSeconds.With("decode")
	stAdmission = mStageSeconds.With("admission")
	stBatchWait = mStageSeconds.With("batch-wait")
	stCompute   = mStageSeconds.With("compute")
	stSurface   = mStageSeconds.With("surface")
	stEncode    = mStageSeconds.With("encode")
)

// ErrorID is the request id an error answer to a prediction carries:
// the client's rid, or a minted 16-hex id when it sent none, so every
// failure is correlatable.
func ErrorID(rid string) string {
	if rid == "" {
		return obs.HexID(obs.NewID())
	}
	return rid
}
