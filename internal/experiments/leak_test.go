package experiments

import (
	"runtime"
	"testing"
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
