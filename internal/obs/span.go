package obs

import (
	"sort"
	"sync"
	"time"
)

// Clock supplies the tracer's notion of "now" in seconds. A wall-clock
// tracer uses WallClock; a DES-driven tracer passes the kernel's Now
// method directly (func() float64), so spans from a simulated run carry
// virtual timestamps and line up with the simulation's own event log.
type Clock func() float64

// processStart anchors WallClock so wall-clock spans are small positive
// seconds, comparable in magnitude to virtual-time spans.
var processStart = time.Now()

// WallClock returns seconds since process start, monotonic.
func WallClock() Clock {
	return func() float64 { return time.Since(processStart).Seconds() }
}

// SinceStart converts a wall-clock instant to the WallClock timebase
// (seconds since process start), so code that measured stages with
// time.Now can record them as spans on the default tracer.
func SinceStart(t time.Time) float64 { return t.Sub(processStart).Seconds() }

// SpanRecord is one finished (or still-open, End < Start is never
// emitted; open spans have End == Start at export time) span. Spans
// recorded under a sampled TraceContext additionally carry hex trace,
// span, and parent-span ids; plain Start/StartSpan spans leave them
// empty, so pre-tracing manifests are byte-identical.
type SpanRecord struct {
	Actor string  `json:"actor"`
	Name  string  `json:"name"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`

	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// Duration returns End - Start.
func (s SpanRecord) Duration() float64 { return s.End - s.Start }

// Tracer collects spans under one clock. It is goroutine-safe and
// bounded: past Max spans new ones are dropped and counted, never
// grown without limit. The zero value is not usable; a nil *Tracer is —
// every method no-ops, so call sites need no guards.
type Tracer struct {
	clock Clock
	max   int

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int64
}

// NewTracer returns a tracer reading time from clock and retaining at
// most maxSpans spans (<= 0 selects 4096).
func NewTracer(clock Clock, maxSpans int) *Tracer {
	if clock == nil {
		clock = WallClock()
	}
	if maxSpans <= 0 {
		maxSpans = 4096
	}
	return &Tracer{clock: clock, max: maxSpans}
}

// Span is an in-flight interval; End finishes it. A nil *Span (from a
// nil or disabled tracer, or an unsampled trace context) is inert.
type Span struct {
	t      *Tracer
	actor  string
	name   string
	start  float64
	trace  uint64
	id     uint64
	parent uint64
}

// Start opens a span for actor entering name. While telemetry is
// disabled (or on a nil tracer) it returns nil without allocating.
func (t *Tracer) Start(actor, name string) *Span {
	if t == nil || !enabled.Load() {
		return nil
	}
	return &Span{t: t, actor: actor, name: name, start: t.clock()}
}

// StartCtx opens a span inside trace tc and returns, alongside the
// span, the context downstream work should carry (same trace, this span
// as parent). Unsampled, invalid, or disabled contexts cost nothing:
// the span is nil and tc passes through unchanged, so propagation is
// preserved even where recording is off.
func (t *Tracer) StartCtx(actor, name string, tc TraceContext) (*Span, TraceContext) {
	if t == nil || !enabled.Load() || !tc.Sampled || !tc.Valid() {
		return nil, tc
	}
	id := NewID()
	s := &Span{t: t, actor: actor, name: name, start: t.clock(),
		trace: tc.TraceID, id: id, parent: tc.SpanID}
	return s, TraceContext{TraceID: tc.TraceID, SpanID: id, Sampled: true}
}

// Context returns the trace context rooted at this span (zero for spans
// outside any trace, including nil spans).
func (s *Span) Context() TraceContext {
	if s == nil || s.trace == 0 {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.trace, SpanID: s.id, Sampled: true}
}

// End closes the span and returns its duration in clock seconds
// (0 on a nil span).
func (s *Span) End() float64 {
	if s == nil {
		return 0
	}
	end := s.t.clock()
	if end < s.start {
		end = s.start
	}
	rec := SpanRecord{Actor: s.actor, Name: s.name, Start: s.start, End: end}
	if s.trace != 0 {
		rec.Trace = hex64(s.trace)
		rec.Span = hex64(s.id)
		if s.parent != 0 {
			rec.Parent = hex64(s.parent)
		}
	}
	s.t.append(rec)
	return rec.Duration()
}

// RecordSpan appends an already-measured interval as a child span of
// tc — the retroactive form used by per-stage attribution, where stage
// boundaries are timed unconditionally (for histograms) and only
// promoted to spans when the request is sampled. Times are in the
// tracer's clock timebase. No-op (and allocation-free) when the tracer
// is nil, telemetry is disabled, or tc is unsampled.
func (t *Tracer) RecordSpan(actor, name string, start, end float64, tc TraceContext) {
	if t == nil || !enabled.Load() || !tc.Sampled || !tc.Valid() {
		return
	}
	if end < start {
		end = start
	}
	t.append(SpanRecord{
		Actor: actor, Name: name, Start: start, End: end,
		Trace: hex64(tc.TraceID), Span: hex64(NewID()), Parent: hex64(tc.SpanID),
	})
}

func (t *Tracer) append(rec SpanRecord) {
	t.mu.Lock()
	if len(t.spans) < t.max {
		t.spans = append(t.spans, rec)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// HexID renders an id the way the wire format does: 16 hex digits.
func HexID(v uint64) string { return hex64(v) }

// hex64 renders an id the way the wire format does: 16 hex digits.
func hex64(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Spans returns the finished spans sorted by start time (ties broken by
// actor, then name, so concurrent spans export deterministically).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		return a.Name < b.Name
	})
	return out
}

// Dropped reports spans discarded over the retention bound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset clears retained spans (between runs in one process).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.dropped = 0
	t.mu.Unlock()
}

// defaultTracer is the process-wide wall-clock tracer StartSpan feeds.
var defaultTracer = NewTracer(WallClock(), 8192)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// StartSpan opens a span on the process-wide wall-clock tracer; nil
// (free) while telemetry is disabled.
func StartSpan(actor, name string) *Span { return defaultTracer.Start(actor, name) }
