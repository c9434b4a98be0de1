package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// TraceContext is the compact cross-process trace state one request
// carries: which trace it belongs to, which span is its direct parent,
// and whether the head of the trace decided to sample it. It crosses
// process boundaries in the X-Contention-Trace HTTP header (see
// internal/serve.TraceHeader) and in the flag-gated trace block of the
// binary wire format; within a process it threads through Tracer.StartCtx
// so every hop's spans share one trace id and parent/child links.
//
// Sampling is head-based: the first process to see a request (loadgen,
// contentionlb, or a bare replica) consults its Sampler once, and every
// hop downstream honors that decision — a sampled request produces a
// full span tree on every process it touches, an unsampled one costs
// nothing anywhere.
type TraceContext struct {
	// TraceID identifies the whole request tree; 0 means "no trace".
	TraceID uint64
	// SpanID is the caller's span — the parent of any span the receiver
	// opens for this request. 0 at the head of a trace.
	SpanID uint64
	// Sampled carries the head's sampling decision.
	Sampled bool
}

// Valid reports whether tc names a trace at all.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// String renders the wire form: 16 hex trace id, 16 hex span id, 2 hex
// flags (bit0 = sampled), dash-separated — 36 bytes, fixed width.
func (tc TraceContext) String() string {
	flags := 0
	if tc.Sampled {
		flags = 1
	}
	return fmt.Sprintf("%016x-%016x-%02x", tc.TraceID, tc.SpanID, flags)
}

// ParseTraceContext parses the wire form. Anything malformed returns
// (zero, false) — a garbled header must never fail a request, only lose
// its trace. The parse is allocation-free.
func ParseTraceContext(s string) (TraceContext, bool) {
	if len(s) != 36 || s[16] != '-' || s[33] != '-' {
		return TraceContext{}, false
	}
	tr, ok := parseHex64(s[:16])
	if !ok {
		return TraceContext{}, false
	}
	sp, ok := parseHex64(s[17:33])
	if !ok {
		return TraceContext{}, false
	}
	fl, ok := parseHex64(s[34:36])
	if !ok || fl > 0xff {
		return TraceContext{}, false
	}
	if tr == 0 {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: tr, SpanID: sp, Sampled: fl&1 != 0}, true
}

// parseHex64 parses a fixed-width lowercase/uppercase hex field without
// allocating (strconv.ParseUint would, via the error path shape).
func parseHex64(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// idBase seeds this process's id sequence from crypto/rand so two
// processes started in the same nanosecond still mint disjoint ids;
// idCounter makes ids unique within the process.
var (
	idBase    uint64
	idCounter atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idBase = binary.LittleEndian.Uint64(b[:])
	} else {
		idBase = 0x9e3779b97f4a7c15 // fixed fallback; counter still disambiguates in-process
	}
}

// NewID mints a non-zero 64-bit id for traces and spans: the process
// seed plus a counter, finalized through fmix64 so consecutive ids are
// well spread.
func NewID() uint64 {
	id := fmix64(idBase + idCounter.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// fmix64 is the MurmurHash3 finalizer.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRootContext starts a fresh trace with the given sampling verdict.
func NewRootContext(sampled bool) TraceContext {
	return TraceContext{TraceID: NewID(), Sampled: sampled}
}

// Sampler is the head-sampling knob: deterministic 1-in-N counting
// (request k is sampled when k ≡ 1 mod N), so a test driving exactly N
// requests knows exactly which one produced a span tree. A nil *Sampler
// never samples; Sample is allocation-free either way.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler selecting 1 in every requests; every <= 0
// returns nil (never sample), every == 1 samples everything.
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return nil
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether this request should start a sampled trace.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.n.Add(1)%s.every == 1%s.every
}

// RequestTrace is one sampled request's tracing handle on a serving
// edge — a replica or the router in front of replicas. A nil
// *RequestTrace is the unsampled case: every method no-ops, so call
// sites need no guards and the warm path stays allocation-free.
type RequestTrace struct {
	actor string
	root  *Span
	// tc is the root span's context: the parent of stage spans.
	tc TraceContext
}

// StartRequestTrace decides a request's trace participation. An
// in-band context (a binary record's trace block) wins over the trace
// header value; a valid upstream context is honored verbatim, including
// a negative sampling verdict — re-sampling downstream would produce
// orphan subtrees. Only a request with neither consults sampler.
//
// The handle is nil unless the request is sampled and telemetry is on.
// The returned context is what downstream hops must carry: the root
// span's when sampled, the upstream one passed through otherwise, and
// zero when the request belongs to no trace.
func StartRequestTrace(actor string, inband TraceContext, header string, sampler *Sampler) (*RequestTrace, TraceContext) {
	tc := inband
	if !tc.Valid() {
		var ok bool
		tc, ok = ParseTraceContext(header)
		if !ok {
			if !sampler.Sample() {
				return nil, TraceContext{}
			}
			tc = NewRootContext(true)
		}
	}
	if !tc.Sampled {
		return nil, tc
	}
	root, child := DefaultTracer().StartCtx(actor, "request", tc)
	if root == nil {
		return nil, tc // telemetry disabled: propagate, record nothing
	}
	return &RequestTrace{actor: actor, root: root, tc: child}, child
}

// Stage records one finished pipeline stage as a child span of the
// request's root. Stage boundaries are read from the serving clock
// either way (the stage histograms want them); this promotes the
// interval to a span when the request is sampled.
func (rt *RequestTrace) Stage(name string, start, end time.Time) {
	if rt == nil {
		return
	}
	DefaultTracer().RecordSpan(rt.actor, name, start, end, rt.tc)
}

// End closes the root request span.
func (rt *RequestTrace) End() {
	if rt != nil {
		rt.root.End()
	}
}
