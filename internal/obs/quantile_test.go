package obs

import (
	"math"
	"testing"
)

func cumBuckets(bounds []float64, counts []int64) []BucketSnapshot {
	out := make([]BucketSnapshot, len(bounds))
	cum := int64(0)
	for i := range bounds {
		cum += counts[i]
		out[i] = BucketSnapshot{UpperBound: bounds[i], Count: cum}
	}
	return out
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	// 100 observations uniform in (0,1], 100 in (1,2].
	b := cumBuckets([]float64{1, 2, math.Inf(1)}, []int64{100, 100, 0})
	cases := []struct{ q, want float64 }{
		{0.25, 0.5},
		{0.5, 1.0},
		{0.75, 1.5},
		{0.9, 1.8},
	}
	for _, c := range cases {
		if got := HistogramQuantile(b, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	if !math.IsNaN(HistogramQuantile(nil, 0.5)) {
		t.Error("empty buckets must be NaN")
	}
	empty := cumBuckets([]float64{1, math.Inf(1)}, []int64{0, 0})
	if !math.IsNaN(HistogramQuantile(empty, 0.5)) {
		t.Error("zero observations must be NaN")
	}
	// All mass in the overflow bucket of a multi-bucket histogram:
	// report the highest finite bound, not an invented value.
	over := cumBuckets([]float64{1, 2, math.Inf(1)}, []int64{0, 0, 10})
	if got := HistogramQuantile(over, 0.99); got != 2 {
		t.Errorf("overflow-heavy q99 = %v, want highest finite bound 2", got)
	}
	// Single +Inf bucket: nothing finite to report.
	onlyInf := cumBuckets([]float64{math.Inf(1)}, []int64{5})
	if !math.IsNaN(HistogramQuantile(onlyInf, 0.5)) {
		t.Error("single overflow bucket must be NaN")
	}
	// q clamped to [0,1].
	b := cumBuckets([]float64{1, 2, math.Inf(1)}, []int64{10, 10, 0})
	if got := HistogramQuantile(b, -1); got != 0 {
		t.Errorf("q<0: got %v, want lower edge 0", got)
	}
	if got := HistogramQuantile(b, 2); got != 2 {
		t.Errorf("q>1: got %v, want upper occupied edge 2", got)
	}
}

func TestMetricSnapshotQuantile(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 100; i++ {
		h.Observe(3.0)
	}
	snap := r.Snapshot()
	m, ok := snap.Find("lat_seconds")
	if !ok {
		t.Fatal("histogram series missing from snapshot")
	}
	p50, ok := m.Quantile(0.5)
	if !ok || p50 < 0.5 || p50 > 1.0 {
		t.Errorf("p50 = %v ok=%v, want within (0,1]", p50, ok)
	}
	p99, ok := m.Quantile(0.99)
	if !ok || p99 < 2 || p99 > 4 {
		t.Errorf("p99 = %v ok=%v, want within (2,4]", p99, ok)
	}
	// Non-histogram series and empty histograms refuse.
	r.Counter("c_total", "").Inc()
	snap = r.Snapshot()
	if c, ok := snap.Find("c_total"); !ok {
		t.Fatal("counter missing")
	} else if _, ok := c.Quantile(0.5); ok {
		t.Error("counter Quantile must report !ok")
	}
	r2 := NewRegistry()
	r2.Histogram("empty_seconds", "", []float64{1})
	if m, ok := r2.Snapshot().Find("empty_seconds"); ok {
		if _, ok := m.Quantile(0.5); ok {
			t.Error("empty histogram Quantile must report !ok")
		}
	}
}

// TestDefaultSecondsBucketsResolveMilliseconds: a histogram on the
// default bounds fed 1.35 ms observations reports its p50 between 1 and
// 2 ms — within one 1-2-5 step, not anywhere in the 1–10 ms decade.
func TestDefaultSecondsBucketsResolveMilliseconds(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.Histogram("stage_seconds", "", DefaultSecondsBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(1.35e-3)
	}
	m, ok := r.Snapshot().Find("stage_seconds")
	if !ok {
		t.Fatal("histogram series missing from snapshot")
	}
	if p50, ok := m.Quantile(0.5); !ok || p50 < 1e-3 || p50 > 2e-3 {
		t.Fatalf("p50 = %v ok=%v, want within [1ms, 2ms]", p50, ok)
	}
}
