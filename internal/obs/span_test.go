package obs

import (
	"testing"
	"time"

	"contention/internal/des"
)

// virtualClock reads the time from a function of virtual seconds; the
// tracer never arms its timers.
type virtualClock func() float64

func (c virtualClock) Now() time.Time {
	return time.Unix(0, 0).Add(time.Duration(c() * float64(time.Second)))
}

func (virtualClock) AfterFunc(time.Duration, func()) Timer { panic("the tracer arms no timer") }

func TestTracerVirtualTime(t *testing.T) {
	withTelemetry(t)
	k := des.New()
	tr := NewTracer(virtualClock(k.Now), 4)
	k.At(1, func() {
		sp := tr.Start("host", "compute")
		k.At(3.5, func() { sp.End() })
	})
	k.At(2, func() { tr.Start("link", "burst").End() })
	k.Run()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0] != (SpanRecord{Actor: "host", Name: "compute", Start: 1, End: 3.5}) {
		t.Fatalf("virtual span = %+v", spans[0])
	}
	if spans[1].Start != 2 || spans[1].Duration() != 0 {
		t.Fatalf("instant span = %+v", spans[1])
	}
}

func TestTracerWallClockMonotone(t *testing.T) {
	withTelemetry(t)
	tr := NewTracer(WallClock(), 4)
	tr.Start("a", "x").End()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].End < spans[0].Start {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestTracerDisabledAndNilAreFree(t *testing.T) {
	SetEnabled(false)
	tr := NewTracer(WallClock(), 4)
	if sp := tr.Start("a", "x"); sp != nil {
		t.Fatal("disabled tracer returned a live span")
	}
	var nilTracer *Tracer
	if sp := nilTracer.Start("a", "x"); sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	var nilSpan *Span
	nilSpan.End() // must not panic
	if nilTracer.Spans() != nil || nilTracer.Dropped() != 0 {
		t.Fatal("nil tracer not inert")
	}
	nilTracer.Reset() // must not panic
}

func TestTracerBounded(t *testing.T) {
	withTelemetry(t)
	clock := 0.0
	tr := NewTracer(virtualClock(func() float64 { clock++; return clock }), 2)
	for i := 0; i < 5; i++ {
		tr.Start("a", "x").End()
	}
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("retained %d spans, want 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestTracerSortsDeterministically(t *testing.T) {
	withTelemetry(t)
	now := 0.0
	tr := NewTracer(virtualClock(func() float64 { return now }), 4)
	// Same start time, distinct actors/names, finished out of order.
	b := tr.Start("b", "second")
	a := tr.Start("a", "first")
	b.End()
	a.End()
	spans := tr.Spans()
	if spans[0].Actor != "a" || spans[1].Actor != "b" {
		t.Fatalf("tie-break order wrong: %+v", spans)
	}
}

func TestStartSpanUsesDefaultTracer(t *testing.T) {
	withTelemetry(t)
	DefaultTracer().Reset()
	t.Cleanup(DefaultTracer().Reset)
	sp := StartSpan("driver", "figure5")
	if sp == nil {
		t.Fatal("StartSpan returned nil while enabled")
	}
	sp.End()
	spans := DefaultTracer().Spans()
	if len(spans) != 1 || spans[0].Name != "figure5" {
		t.Fatalf("default tracer spans = %+v", spans)
	}
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
