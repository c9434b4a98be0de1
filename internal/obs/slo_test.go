package obs

import (
	"testing"
	"time"
)

// sloHarness builds a tracker; the tests pass it virtual instants that
// span the 5-minute and 1-hour windows.
func sloHarness(t *testing.T) *SLOTracker {
	t.Helper()
	tr, err := NewSLOTracker(SLOConfig{
		LatencyThresholdSeconds: 0.1,
		LatencyTarget:           0.9,
		AvailabilityTarget:      0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// at is the virtual instant s seconds in.
func at(s int) time.Time { return time.Unix(int64(s), 0) }

// feed records 10 requests of the given latency and outcome in every
// virtual second of [from, to).
func feed(tr *SLOTracker, from, to int, latency float64, ok bool) {
	for s := from; s < to; s++ {
		for i := 0; i < 10; i++ {
			tr.Record(at(s), latency, ok)
		}
	}
}

func TestSLOConfigValidation(t *testing.T) {
	bad := []SLOConfig{
		{LatencyTarget: 1.5},
		{AvailabilityTarget: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewSLOTracker(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
	var nilT *SLOTracker
	nilT.Record(at(1), 1, true) // must not panic
	if st := nilT.Status(at(1)); st.Breach {
		t.Error("nil tracker reports breach")
	}
}

// TestSLOBreachAndRecovery is the virtual-time battery: healthy traffic
// keeps burn at zero, an availability incident trips the multi-window
// alert, and recovery clears it as soon as the fast window drains even
// though the slow window still remembers the incident.
func TestSLOBreachAndRecovery(t *testing.T) {
	tr := sloHarness(t)

	// Phase 1: 600 virtual seconds of healthy, fast traffic.
	feed(tr, 0, 600, 0.01, true)
	st := tr.Status(at(599))
	if st.Breach || st.Fast.AvailabilityBurn != 0 || st.Fast.LatencyBurn != 0 {
		t.Fatalf("healthy traffic: %+v, want no burn", st)
	}

	// Phase 2: a 300 s outage — every request fails. Availability burn
	// is failed/total scaled by the 1% budget: the fast window goes to
	// 100, the slow window (1/3 of its 900 s of traffic failing) well
	// above 14.4.
	feed(tr, 600, 900, 0.01, false)
	st = tr.Status(at(899))
	if !st.Breach || st.Reason != "availability" {
		t.Fatalf("after outage: breach=%v reason=%q (fast av burn %.1f, slow %.1f), want availability breach",
			st.Breach, st.Reason, st.Fast.AvailabilityBurn, st.Slow.AvailabilityBurn)
	}
	if st.Fast.AvailabilityBurn < 14.4 || st.Slow.AvailabilityBurn < 14.4 {
		t.Fatalf("both windows must burn above alert: fast %.1f slow %.1f",
			st.Fast.AvailabilityBurn, st.Slow.AvailabilityBurn)
	}

	// Phase 3: recovery. After 305 s of healthy traffic the fast window
	// holds no failures, so the breach clears — the slow window still
	// carries the outage (that is the point of the multi-window rule:
	// the fast window resets the alert quickly once the problem stops).
	feed(tr, 900, 1205, 0.01, true)
	st = tr.Status(at(1204))
	if st.Breach {
		t.Fatalf("after recovery: still breached %+v", st)
	}
	if st.Fast.AvailabilityBurn != 0 {
		t.Errorf("fast window should have drained, burn %.2f", st.Fast.AvailabilityBurn)
	}
	if st.Slow.AvailabilityBurn <= 0 {
		t.Error("slow window should still remember the outage")
	}
}

// TestSLOLatencyBreach drives the latency objective: requests that
// succeed but miss the threshold burn the latency budget while leaving
// availability untouched.
func TestSLOLatencyBreach(t *testing.T) {
	tr := sloHarness(t)
	// All requests succeed, all are slow: slow/ok = 1, budget 10% →
	// burn 10 in both windows. Not a breach at the 14.4 alert…
	feed(tr, 0, 300, 0.5, true)
	st := tr.Status(at(299))
	if st.Breach {
		t.Fatalf("burn 10 < alert 14.4 must not breach: %+v", st)
	}
	if st.Fast.LatencyBurn < 9.9 || st.Fast.LatencyBurn > 10.1 {
		t.Fatalf("fast latency burn %.2f, want ~10", st.Fast.LatencyBurn)
	}
	if st.Fast.AvailabilityBurn != 0 {
		t.Errorf("slow-but-successful traffic must not burn availability, got %.2f", st.Fast.AvailabilityBurn)
	}

	// …until a tracker with a tighter target sees the same traffic.
	tight := sloHarness(t)
	tight.cfg.LatencyTarget = 0.99 // budget 1% → burn 100
	feed(tight, 0, 300, 0.5, true)
	st = tight.Status(at(299))
	if !st.Breach || st.Reason != "latency" {
		t.Fatalf("tight latency target: breach=%v reason=%q, want latency breach", st.Breach, st.Reason)
	}
}

// TestSLORecordAllocationFree pins Record on the request path.
func TestSLORecordAllocationFree(t *testing.T) {
	tr := sloHarness(t)
	if allocs := testing.AllocsPerRun(200, func() {
		tr.Record(at(1), 0.01, true)
		tr.Record(at(1), 0.5, false)
	}); allocs != 0 {
		t.Fatalf("SLO Record allocates %.1f objects/op, want 0", allocs)
	}
}
