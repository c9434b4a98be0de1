package obs

import "testing"

// The disabled-path allocation contract: with telemetry off, every
// record operation must be a single atomic load and return — zero
// allocations, so instrumenting the prediction hot path costs the
// 0 allocs/op regression tests in internal/core nothing. The `make
// check` gate runs these by name.

func TestDisabledRecordingAllocationFree(t *testing.T) {
	SetEnabled(false)
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2, 3})
	if allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.SetMax(9)
		h.Observe(0.5)
	}); allocs != 0 {
		t.Fatalf("disabled metric recording allocates %.1f objects/op, want 0", allocs)
	}
}

func TestDisabledSpansAllocationFree(t *testing.T) {
	SetEnabled(false)
	tr := NewTracer(WallClock(), 16)
	if allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start("actor", "name")
		sp.End()
		StartSpan("actor", "name").End()
	}); allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f objects/op, want 0", allocs)
	}
}

// Enabled counters and histograms are atomic too — recording never
// allocates, only Start'ing a live span does.
func TestEnabledCountersAllocationFree(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2, 3})
	if allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.SetMax(1)
		h.Observe(2.5)
	}); allocs != 0 {
		t.Fatalf("enabled metric recording allocates %.1f objects/op, want 0", allocs)
	}
}
