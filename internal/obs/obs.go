// Package obs is the unified telemetry layer for the contention stack:
// a zero-dependency metrics registry (atomic counters, gauges and
// fixed-bucket histograms with Prometheus-style text exposition and
// expvar publishing), lightweight span tracing that is virtual-time
// aware (a DES run and a wall-clock emulation run produce equally
// coherent timelines), and schema-versioned JSON run manifests the
// commands emit at exit.
//
// The paper's premise is that contended performance is only predictable
// when the contention is observable; obs turns that lens on the
// reproduction itself. The subsystems it instruments — the runner pool,
// the predictor, the trust layer, the fault injector, the live
// emulation link, the monitor — publish through one registry, so a run
// can always answer "what did the machine actually do".
//
// Telemetry is off by default and must cost nothing when off: every
// record operation first consults one atomic flag and returns without
// allocating (enforced by alloc regression tests), so the 0 allocs/op
// contract of the warm prediction hot path is preserved.
package obs

import "sync/atomic"

// enabled is the global switch. All record paths (Counter.Add,
// Gauge.Set, Histogram.Observe, Tracer.Start) are no-ops while it is
// false; registration, snapshots and exposition work regardless, they
// just report zeros.
var enabled atomic.Bool

// SetEnabled switches telemetry recording on or off globally.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether telemetry recording is on.
func Enabled() bool { return enabled.Load() }

// std is the process-wide default registry the instrumented packages
// register into.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// NewCounter registers (or fetches) a counter on the default registry.
func NewCounter(name, help string) *Counter { return std.Counter(name, help) }

// NewGauge registers (or fetches) a gauge on the default registry.
func NewGauge(name, help string) *Gauge { return std.Gauge(name, help) }

// NewHistogram registers (or fetches) a histogram on the default
// registry. See Registry.Histogram for the bounds contract.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return std.Histogram(name, help, bounds)
}

// NewCounterVec returns a labelled counter family on the default
// registry.
func NewCounterVec(name, help, label string) *CounterVec {
	return std.CounterVec(name, help, label)
}

// NewGaugeVec returns a labelled gauge family on the default registry.
func NewGaugeVec(name, help, label string) *GaugeVec {
	return std.GaugeVec(name, help, label)
}

// NewHistogramVec returns a labelled histogram family on the default
// registry.
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return std.HistogramVec(name, help, label, bounds)
}
