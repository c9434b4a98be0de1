package obs

import (
	"fmt"
	"sync"
	"time"
)

// SLO objectives and the multi-window burn-rate math.
//
// Two objectives are tracked over the same request stream:
//
//   - latency: at least LatencyTarget of requests complete within
//     LatencyThresholdSeconds (failed requests are excluded from the
//     latency SLI — they are the availability SLI's problem);
//   - availability: at least AvailabilityTarget of requests succeed.
//
// Each SLI's burn rate is (bad fraction) / (error budget): burn 1 means
// the error budget is being spent exactly at the sustainable rate, burn
// 14.4 means a 30-day budget would be gone in 50 hours. A breach is
// declared only when BOTH the fast and the slow window burn above 14.4
// (the classic "2% of a 30-day budget per hour" paging threshold) — the
// standard multi-window rule: the slow window proves the problem is
// real (not one bad second), the fast window proves it is still
// happening (so the alert resets quickly after recovery).
//
// The tracker reads no clock: every call brings its caller's now, so
// tests walk it through breach and recovery on virtual time. State is a
// ring of fixed-width time buckets covering the slow window; Record is
// allocation-free.

// The burn windows, 5 minutes and an hour, and the burn rate both must
// reach to declare a breach.
const (
	sloFastWindowSeconds = 300
	sloSlowWindowSeconds = 3600
	sloBurnAlert         = 14.4
	// A bucket is 1/60 of the fast window, so the fast burn updates
	// smoothly and the slow ring stays small (720 buckets).
	sloFastBuckets = 60
	sloSlowBuckets = sloSlowWindowSeconds * sloFastBuckets / sloFastWindowSeconds
	sloBucketWidth = sloFastWindowSeconds * time.Second / sloFastBuckets
)

// SLOConfig configures an SLOTracker. Zero fields take defaults.
type SLOConfig struct {
	// LatencyThresholdSeconds is the "fast enough" bound; <= 0 disables
	// the latency objective (its burn is always 0).
	LatencyThresholdSeconds float64
	// LatencyTarget is the fraction of successful requests that must be
	// fast enough (default 0.99).
	LatencyTarget float64
	// AvailabilityTarget is the fraction of requests that must succeed
	// (default 0.999).
	AvailabilityTarget float64
	// Registry receives the slo_* gauges; Default() when nil.
	Registry *Registry
}

// sloBucket accumulates one time slice of the request stream.
type sloBucket struct {
	total  int64 // all requests
	ok     int64 // successful requests
	slow   int64 // successful but over the latency threshold
	failed int64 // unsuccessful
}

// SLOTracker is the tracker; create with NewSLOTracker. Record works
// whether or not telemetry is enabled — objectives gate readiness, not
// just dashboards — but the exported gauges only move while enabled.
type SLOTracker struct {
	cfg SLOConfig

	mu   sync.Mutex
	ring [sloSlowBuckets]sloBucket
	cur  int64 // absolute bucket index the cursor is on

	gLatFast, gLatSlow *Gauge
	gAvFast, gAvSlow   *Gauge
	gBreach            *Gauge
}

// NewSLOTracker validates cfg and returns a tracker.
func NewSLOTracker(cfg SLOConfig) (*SLOTracker, error) {
	if cfg.LatencyTarget == 0 {
		cfg.LatencyTarget = 0.99
	}
	if cfg.AvailabilityTarget == 0 {
		cfg.AvailabilityTarget = 0.999
	}
	if cfg.LatencyTarget < 0 || cfg.LatencyTarget >= 1 {
		return nil, fmt.Errorf("obs: latency target %v outside [0,1)", cfg.LatencyTarget)
	}
	if cfg.AvailabilityTarget < 0 || cfg.AvailabilityTarget >= 1 {
		return nil, fmt.Errorf("obs: availability target %v outside [0,1)", cfg.AvailabilityTarget)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = Default()
	}
	return &SLOTracker{
		cfg:      cfg,
		gLatFast: reg.Gauge(MetricSLOLatencyBurnFast, "latency SLO burn rate over the fast window"),
		gLatSlow: reg.Gauge(MetricSLOLatencyBurnSlow, "latency SLO burn rate over the slow window"),
		gAvFast:  reg.Gauge(MetricSLOAvailBurnFast, "availability SLO burn rate over the fast window"),
		gAvSlow:  reg.Gauge(MetricSLOAvailBurnSlow, "availability SLO burn rate over the slow window"),
		gBreach:  reg.Gauge(MetricSLOBreach, "1 while both burn windows exceed the alert threshold"),
	}, nil
}

// bucketIndex is the absolute index of the bucket holding now.
func bucketIndex(now time.Time) int64 {
	return max(0, now.UnixNano()) / int64(sloBucketWidth)
}

// Record feeds one request that finished at now into the tracker: its
// latency in seconds and whether it succeeded. Allocation-free.
func (t *SLOTracker) Record(now time.Time, latencySeconds float64, ok bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.advanceLocked(now)
	b := &t.ring[int(t.cur%int64(len(t.ring)))]
	b.total++
	if !ok {
		b.failed++
	} else {
		b.ok++
		if t.cfg.LatencyThresholdSeconds > 0 && latencySeconds > t.cfg.LatencyThresholdSeconds {
			b.slow++
		}
	}
	t.mu.Unlock()
}

// advanceLocked moves the cursor to the bucket holding now, zeroing the
// slices in between, and refreshes the exported gauges whenever the
// bucket actually turns over (so gauge staleness is at most one bucket
// width without putting an O(ring) scan on every Record).
func (t *SLOTracker) advanceLocked(now time.Time) {
	idx := bucketIndex(now)
	if idx <= t.cur {
		return
	}
	n := idx - t.cur
	if n > int64(len(t.ring)) {
		n = int64(len(t.ring))
	}
	for i := int64(1); i <= n; i++ {
		t.ring[int((t.cur+i)%int64(len(t.ring)))] = sloBucket{}
	}
	t.cur = idx
	st := t.statusLocked()
	t.gLatFast.Set(st.Fast.LatencyBurn)
	t.gLatSlow.Set(st.Slow.LatencyBurn)
	t.gAvFast.Set(st.Fast.AvailabilityBurn)
	t.gAvSlow.Set(st.Slow.AvailabilityBurn)
	if st.Breach {
		t.gBreach.Set(1)
	} else {
		t.gBreach.Set(0)
	}
}

// SLOWindowStatus is one burn window's tallies and rates.
type SLOWindowStatus struct {
	Seconds          float64 `json:"seconds"`
	Total            int64   `json:"total"`
	Slow             int64   `json:"slow,omitempty"`
	Failed           int64   `json:"failed,omitempty"`
	LatencyBurn      float64 `json:"latency_burn"`
	AvailabilityBurn float64 `json:"availability_burn"`
}

// SLOStatus is the tracker's full externally-visible state — served in
// /readyz detail, on /debug/fleet, and embedded in the run manifest.
type SLOStatus struct {
	LatencyThresholdMs float64         `json:"latency_threshold_ms,omitempty"`
	LatencyTarget      float64         `json:"latency_target"`
	AvailabilityTarget float64         `json:"availability_target"`
	BurnAlert          float64         `json:"burn_alert"`
	Fast               SLOWindowStatus `json:"fast"`
	Slow               SLOWindowStatus `json:"slow"`
	Breach             bool            `json:"breach"`
	Reason             string          `json:"reason,omitempty"`
}

// Status advances the tracker to now and computes both windows.
// Nil-safe (zero status).
func (t *SLOTracker) Status(now time.Time) SLOStatus {
	if t == nil {
		return SLOStatus{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advanceLocked(now)
	return t.statusLocked()
}

func (t *SLOTracker) statusLocked() SLOStatus {
	st := SLOStatus{
		LatencyThresholdMs: t.cfg.LatencyThresholdSeconds * 1e3,
		LatencyTarget:      t.cfg.LatencyTarget,
		AvailabilityTarget: t.cfg.AvailabilityTarget,
		BurnAlert:          sloBurnAlert,
		Fast:               t.windowLocked(sloFastBuckets),
		Slow:               t.windowLocked(sloSlowBuckets),
	}
	latBreach := st.Fast.LatencyBurn >= sloBurnAlert && st.Slow.LatencyBurn >= sloBurnAlert
	avBreach := st.Fast.AvailabilityBurn >= sloBurnAlert && st.Slow.AvailabilityBurn >= sloBurnAlert
	switch {
	case latBreach && avBreach:
		st.Breach, st.Reason = true, "latency+availability"
	case latBreach:
		st.Breach, st.Reason = true, "latency"
	case avBreach:
		st.Breach, st.Reason = true, "availability"
	}
	return st
}

// windowLocked sums the last n buckets ending at the cursor.
func (t *SLOTracker) windowLocked(n int) SLOWindowStatus {
	var w sloBucket
	for i := 0; i < n; i++ {
		b := t.ring[int(((t.cur-int64(i))%int64(len(t.ring))+int64(len(t.ring)))%int64(len(t.ring)))]
		w.total += b.total
		w.ok += b.ok
		w.slow += b.slow
		w.failed += b.failed
	}
	st := SLOWindowStatus{Seconds: float64(n) * sloBucketWidth.Seconds(), Total: w.total, Slow: w.slow, Failed: w.failed}
	if w.ok > 0 && t.cfg.LatencyThresholdSeconds > 0 {
		st.LatencyBurn = (float64(w.slow) / float64(w.ok)) / (1 - t.cfg.LatencyTarget)
	}
	if w.total > 0 {
		st.AvailabilityBurn = (float64(w.failed) / float64(w.total)) / (1 - t.cfg.AvailabilityTarget)
	}
	return st
}
