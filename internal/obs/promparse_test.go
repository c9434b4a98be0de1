package obs

import (
	"reflect"
	"strings"
	"testing"
)

// TestPrometheusRoundTrip pins the contract the fleet scraper depends
// on: parsing a registry's own text exposition reproduces its snapshot
// exactly (names, kinds, values, cumulative buckets).
func TestPrometheusRoundTrip(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("reqs_total", "requests").Add(42)
	r.Gauge("up_replicas", "replicas up").Set(3)
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5) // overflow bucket
	hv := r.HistogramVec("stage_seconds", "per-stage", "stage", []float64{0.001, 0.01})
	hv.With("decode").Observe(0.0005)
	hv.With("compute").Observe(0.02)
	cv := r.CounterVec("outcomes_total", "outcomes", "outcome")
	cv.With("ok").Add(7)
	cv.With("error").Inc()

	want := r.Snapshot()
	got, err := ParsePrometheusText(r.PrometheusText())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("parsed %d series, want %d\ngot:  %+v\nwant: %+v",
			len(got.Metrics), len(want.Metrics), got.Metrics, want.Metrics)
	}
	for i := range want.Metrics {
		w, g := want.Metrics[i], got.Metrics[i]
		// Exposition collapses help text per base family; compare the
		// load-bearing fields.
		w.Help, g.Help = "", ""
		if !reflect.DeepEqual(w, g) {
			t.Errorf("series %d:\ngot  %+v\nwant %+v", i, g, w)
		}
	}
}

func TestParsePrometheusTextRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"lat_seconds",                    // no value
		"lat_seconds notanum",            // bad value
		"# TYPE h histogram\nh_bucket 3", // bucket without le
	} {
		if _, err := ParsePrometheusText(text); err == nil {
			t.Errorf("ParsePrometheusText(%q) accepted, want error", text)
		}
	}
	// Comments, blank lines, and unknown TYPE default handled leniently.
	snap, err := ParsePrometheusText("\n# a comment\n\nfoo 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) != 1 || snap.Metrics[0].Kind != "gauge" || snap.Metrics[0].Value != 3 {
		t.Fatalf("lenient parse = %+v", snap.Metrics)
	}
}

// TestMergeSnapshots pins the fleet aggregation rule: same-named series
// sum (counters, gauges, histogram sums/counts, buckets per bound) and
// every merged series gains the fleet_ prefix.
func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{Metrics: []MetricSnapshot{
		{Name: "reqs_total", Kind: "counter", Value: 10},
		{Name: "lat_seconds", Kind: "histogram", Count: 2, Sum: 0.3, Buckets: []BucketSnapshot{
			{UpperBound: 0.1, Count: 1}, {UpperBound: 1, Count: 2},
		}},
	}}
	b := Snapshot{Metrics: []MetricSnapshot{
		{Name: "reqs_total", Kind: "counter", Value: 5},
		{Name: "only_b", Kind: "gauge", Value: 7},
		{Name: "lat_seconds", Kind: "histogram", Count: 1, Sum: 0.9, Buckets: []BucketSnapshot{
			{UpperBound: 0.1, Count: 0}, {UpperBound: 1, Count: 1},
		}},
	}}
	m := MergeSnapshots("fleet_", a, b)

	if c, ok := m.Find("fleet_reqs_total"); !ok || c.Value != 15 {
		t.Errorf("fleet_reqs_total = %+v ok=%v, want 15", c, ok)
	}
	if g, ok := m.Find("fleet_only_b"); !ok || g.Value != 7 {
		t.Errorf("fleet_only_b = %+v ok=%v, want 7", g, ok)
	}
	h, ok := m.Find("fleet_lat_seconds")
	if !ok || h.Count != 3 || h.Sum != 1.2 {
		t.Fatalf("fleet_lat_seconds = %+v ok=%v, want count 3 sum 1.2", h, ok)
	}
	wantBuckets := []BucketSnapshot{{UpperBound: 0.1, Count: 1}, {UpperBound: 1, Count: 3}}
	if !reflect.DeepEqual(h.Buckets, wantBuckets) {
		t.Errorf("merged buckets = %+v, want %+v", h.Buckets, wantBuckets)
	}
	// Kind conflict: first kind wins, later values skipped.
	c1 := Snapshot{Metrics: []MetricSnapshot{{Name: "x", Kind: "counter", Value: 1}}}
	c2 := Snapshot{Metrics: []MetricSnapshot{{Name: "x", Kind: "gauge", Value: 100}}}
	if x, ok := MergeSnapshots("", c1, c2).Find("x"); !ok || x.Kind != "counter" || x.Value != 1 {
		t.Errorf("kind conflict: %+v ok=%v, want counter 1", x, ok)
	}
}

// TestMergedSnapshotExposes checks the merged snapshot writes valid
// exposition text that itself round-trips — the contentionlb /metrics
// page serves exactly this.
func TestMergedSnapshotExposes(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("reqs_total", "").Add(3)
	r.Histogram("lat_seconds", "", []float64{0.1}).Observe(0.05)
	merged := MergeSnapshots("fleet_", r.Snapshot(), r.Snapshot())
	var sb strings.Builder
	if err := merged.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePrometheusText(sb.String())
	if err != nil {
		t.Fatalf("merged exposition does not re-parse: %v\n%s", err, sb.String())
	}
	if c, ok := back.Find("fleet_reqs_total"); !ok || c.Value != 6 {
		t.Errorf("fleet_reqs_total = %+v ok=%v, want 6", c, ok)
	}
	if h, ok := back.Find("fleet_lat_seconds"); !ok || h.Count != 2 {
		t.Errorf("fleet_lat_seconds = %+v ok=%v, want count 2", h, ok)
	}
}

// FuzzParsePrometheusText: the scrape decoder never panics, and whatever
// page it accepts, WritePrometheus re-encodes into a page it accepts
// again with the same series, each of the same kind. The seed corpus is
// in testdata/fuzz/FuzzParsePrometheusText.
func FuzzParsePrometheusText(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		snap, err := ParsePrometheusText(text)
		if err != nil {
			return
		}
		var b strings.Builder
		if err := snap.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		again, err := ParsePrometheusText(b.String())
		if err != nil {
			t.Fatalf("re-encoded page refused: %v\n%s", err, b.String())
		}
		if len(again.Metrics) != len(snap.Metrics) {
			t.Fatalf("%d series, %d after a round trip\n%s", len(snap.Metrics), len(again.Metrics), b.String())
		}
		for i, m := range snap.Metrics {
			if r := again.Metrics[i]; r.Name != m.Name || r.Kind != m.Kind {
				t.Fatalf("series %d: %s %q, %s %q after a round trip\n%s", i, m.Kind, m.Name, r.Kind, r.Name, b.String())
			}
		}
	})
}
