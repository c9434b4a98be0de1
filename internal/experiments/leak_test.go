package experiments

import (
	"runtime"
	"testing"

	"contention/internal/link"
	"contention/internal/platform"
)

// settled returns the goroutine count and the live heap after a
// collection.
func settled() (goroutines int, heap uint64) {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtime.NumGoroutine(), ms.HeapAlloc
}

// flat fails the test when a repeat of pass moves the goroutine count
// or the live heap more than 5% above its level after the first pass:
// every DES kernel a pass creates must be closed, or its parked
// contenders and servers — coroutines, their stacks and everything
// they reference — stay behind.
func flat(t *testing.T, what string, repeats int, pass func()) {
	t.Helper()
	pass()
	g0, h0 := settled()
	for i := 0; i < repeats; i++ {
		pass()
		g, h := settled()
		if float64(g) > 1.05*float64(g0) {
			t.Errorf("%s: goroutines %d after the first pass, %d after pass %d", what, g0, g, i+2)
		}
		if float64(h) > 1.05*float64(h0) {
			t.Errorf("%s: live heap %d B after the first pass, %d B after pass %d", what, h0, h, i+2)
		}
	}
}

func TestSuiteDoesNotLeak(t *testing.T) {
	e := env(t)
	flat(t, "experiments.All", 2, func() {
		if _, err := All(e); err != nil {
			t.Fatal(err)
		}
	})
	flat(t, "NewEnv", 1, func() {
		if _, err := NewEnv(); err != nil {
			t.Fatal(err)
		}
	})
}

// A pass keeps only what an exhibit reads: contender traffic is dropped
// where it lands and each dedicated burst is simulated once, so one
// serial All allocates a couple of megabytes (1.9 MB when this was
// written; 10.7 MB before, 87% of it unread inboxes). And the dedicated
// memo dies with the pass: a second All on the same Env simulates
// exactly the bursts the first did — Figure 4's 44 plus the 18 contended
// of Figures 5 and 6, whose 18 dedicated are Figure 4's — and allocates
// as much.
func TestSuitePassIsSmallAndForgetsItsBursts(t *testing.T) {
	e := env(t)
	for pass := 1; pass <= 2; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bursts := burstRuns.Load()
		if _, err := All(e); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := burstRuns.Load() - bursts; got != 62 {
			t.Errorf("pass %d simulated %d bursts, want 62", pass, got)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("pass %d allocated %d bytes, want at most 4 MiB", pass, got)
		}
	}
	if e.dedicated != nil {
		t.Error("All left a dedicated-burst memo on the caller's Env")
	}
	var _ *link.Node = new(platform.SunParagon).ParagonEnd // and no pass can build a Paragon-side mailbox: a Node has handlers, no inbox
}
