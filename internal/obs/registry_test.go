package obs

import (
	"math"
	"sync"
	"testing"
)

// withTelemetry enables recording for one test and restores the prior
// state afterwards.
func withTelemetry(t *testing.T) {
	t.Helper()
	prev := Enabled()
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(prev) })
}

func TestCounterBasics(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	c.Add(0)  // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", "other help"); again != c {
		t.Fatal("get-or-create returned a different handle")
	}
}

func TestCounterDisabledDoesNotCount(t *testing.T) {
	SetEnabled(false)
	r := NewRegistry()
	c := r.Counter("x_total", "")
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter moved to %d", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	g := r.Gauge("depth", "")
	g.SetMax(10)
	g.SetMax(7) // lower: ignored
	if got := g.Value(); got != 10 {
		t.Fatalf("SetMax gauge = %v, want 10", got)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{1, 10})
	for _, v := range []float64{0.5, 0.7, 5, 100, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4 (NaN must be skipped)", got)
	}
	if got := h.Sum(); got != 106.2 {
		t.Fatalf("sum = %v, want 106.2", got)
	}
	snap := r.Snapshot()
	m := snap.Metrics[0]
	want := []BucketSnapshot{{1, 2}, {10, 3}, {math.Inf(1), 4}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", m.Buckets)
	}
	for i, b := range want {
		if m.Buckets[i] != b {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, m.Buckets[i], b)
		}
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge re-registration of a counter name did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestBadNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "1abc", "a b", "a{unterminated", `a{k="v"}{`, "per-cent%"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", name)
				}
			}()
			r.Counter(name, "")
		}()
	}
	// Valid forms must not panic.
	r.Counter("ok_total", "")
	r.Counter(`ok_total{kind="link-drop"}`, "")
	r.Counter("ns:sub_total", "")
}

func TestHistogramBoundsValidation(t *testing.T) {
	r := NewRegistry()
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {math.NaN()}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v accepted", bounds)
				}
			}()
			r.Histogram("h", "", bounds)
		}()
	}
}

func TestCounterVecMemoizesSeries(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	v := r.CounterVec("faults_total", "injected faults", "kind")
	v.With("drop").Inc()
	v.With("drop").Inc()
	v.With("stall").Inc()
	snap := r.Snapshot()
	got := snap.Labelled("faults_total")
	if got["drop"] != 2 || got["stall"] != 1 {
		t.Fatalf("labelled values = %v", got)
	}
	if v.With("drop") != v.With("drop") {
		t.Fatal("With not memoized")
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("m", "k", "a\"b\\c\nd")
	want := `m{k="a\"b\\c\nd"}`
	if got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
}

func TestSnapshotLookups(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("c_total", "").Add(7)
	r.Gauge("g", "").SetMax(2.5)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	s := r.Snapshot()
	if s.Counter("c_total") != 7 {
		t.Fatalf("Counter lookup = %d", s.Counter("c_total"))
	}
	if s.Gauge("g") != 2.5 {
		t.Fatalf("Gauge lookup = %v", s.Gauge("g"))
	}
	if v, ok := s.Value("h"); !ok || v != 1 {
		t.Fatalf("histogram Value = %v, %v (want observation count)", v, ok)
	}
	if _, ok := s.Value("missing"); ok {
		t.Fatal("missing series reported present")
	}
	if s.Counter("missing") != 0 {
		t.Fatal("missing counter nonzero")
	}
}

func TestResetZeroesEverything(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Gauge("g", "").SetMax(9)
	r.Histogram("h", "", []float64{1}).Observe(2)
	r.Reset()
	s := r.Snapshot()
	if s.Counter("c_total") != 0 || s.Gauge("g") != 0 {
		t.Fatalf("reset left values: %+v", s.Metrics)
	}
	if v, _ := s.Value("h"); v != 0 {
		t.Fatalf("reset left histogram count %v", v)
	}
}

// TestConcurrentRecording exercises every record path under the race
// detector.
func TestConcurrentRecording(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2, 3})
	v := r.CounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				g.SetMax(float64(j))
				h.Observe(float64(j % 5))
				v.With([]string{"a", "b"}[i%2]).Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if g.Value() < 499 {
		t.Fatalf("gauge = %v", g.Value())
	}
	if h.Count() != 4000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	lab := r.Snapshot().Labelled("v_total")
	if lab["a"]+lab["b"] != 4000 {
		t.Fatalf("vec totals = %v", lab)
	}
}
