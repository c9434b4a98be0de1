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
// request trace handle is a nil pointer and every method on it no-ops.
package serve

import (
	"errors"
	"time"

	"contention/internal/obs"
)

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

var mTraceSampled = obs.NewCounter(obs.MetricTraceSampled,
	"requests that carried or started a sampled trace")

// reqTrace is one sampled request's tracing handle. A nil *reqTrace is
// the unsampled case: every method no-ops, so call sites need no guards
// and the warm path stays allocation-free.
type reqTrace struct {
	root *obs.Span
	// tc is the root span's context — the parent for stage spans and the
	// context to propagate downstream.
	tc obs.TraceContext
}

// requestTrace decides a request's trace participation. An in-band
// context (binary trace block) wins over the trace header value; a valid
// upstream context is honored verbatim, including a negative sampling
// verdict — re-sampling downstream would produce orphan subtrees.
// Only headless requests consult the server's own sampler.
func (s *Server) requestTrace(header string, inband obs.TraceContext) *reqTrace {
	tc := inband
	if !tc.Valid() {
		var ok bool
		tc, ok = obs.ParseTraceContext(header)
		if !ok {
			if !s.cfg.Sampler.Sample() {
				return nil
			}
			tc = obs.NewRootContext(true)
		}
	}
	if !tc.Sampled {
		return nil
	}
	root, child := obs.DefaultTracer().StartCtx("serve", "request", tc)
	if root == nil {
		// Telemetry disabled: propagation still happened upstream, but
		// this process records nothing.
		return nil
	}
	mTraceSampled.Inc()
	return &reqTrace{root: root, tc: child}
}

// stage records one finished pipeline stage as a child span of the
// request's root. Stage boundaries are timed with time.Now either way
// (the histograms want them); this just promotes the interval to a span
// when the request is sampled.
func (rt *reqTrace) stage(name string, start, end time.Time) {
	if rt == nil {
		return
	}
	obs.DefaultTracer().RecordSpan("serve", name, obs.SinceStart(start), obs.SinceStart(end), rt.tc)
}

// end closes the root request span.
func (rt *reqTrace) end() {
	if rt != nil {
		rt.root.End()
	}
}

// newRequestID mints a 16-hex request id for error responses whose
// client did not send X-Request-Id.
func newRequestID() string { return obs.HexID(obs.NewID()) }

// recordSLO feeds one finished request into the SLO tracker. Client
// errors (4xx RequestError) are excluded from both SLIs — a malformed
// request burns no server error budget.
func (s *Server) recordSLO(start time.Time, err error) {
	if s.cfg.SLO == nil {
		return
	}
	if err != nil {
		// errors.As makes its target escape, so it only runs on the
		// error path — the success path must stay allocation-free.
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			return
		}
	}
	s.cfg.SLO.Record(time.Since(start).Seconds(), err == nil)
}
