package monitor

import (
	"errors"
	"math"
	"testing"

	"contention/internal/obs"
)

// TestSampleCountersMove checks that the sampling path accounts for
// every scheduled sample: accepted ones land in the window, a loss
// function's casualties are counted as dropped, and a non-finite
// counter inside the estimation window is counted as rejected.
func TestSampleCountersMove(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })

	k, sp := newSP(t)
	m, err := New(sp, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	drop := true
	m.SetLossFunc(func() bool {
		drop = !drop
		return drop
	})
	d0, r0 := mDropped.Value(), mRejected.Value()
	m.Start()
	k.RunUntil(2)
	if n := len(m.samples); n < 2 {
		t.Fatalf("%d samples in the window, want ≥ 2", n)
	}
	if d := mDropped.Value() - d0; int(d) != m.Dropped() || d < 1 {
		t.Fatalf("dropped counter moved by %d, want %d (≥ 1)", d, m.Dropped())
	}

	m.samples[0].HostBusy = math.NaN()
	if _, err := m.EstimateWindow(100); !errors.Is(err, ErrNonFiniteSample) {
		t.Fatalf("error = %v, want ErrNonFiniteSample", err)
	}
	if d := mRejected.Value() - r0; int(d) != m.Rejected() || d != 1 {
		t.Fatalf("rejected counter moved by %d, want %d (= 1)", d, m.Rejected())
	}
}
