package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestSnapshotJSONRoundTrip pins the contract the fleet scrape depends
// on: a registry served through Handler with ?format=json decodes to
// its snapshot exactly — names, kinds, help, values and cumulative
// buckets, the +Inf overflow bucket included.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	cv := r.CounterVec("outcomes_total", "outcomes", "outcome")
	cv.With("ok").Add(7)
	cv.With("error").Inc()
	r.Gauge("up_replicas", "replicas up").SetMax(2.5)
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.005)
	h.Observe(5) // overflow bucket

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	got, err := DecodeSnapshot(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded snapshot differs:\ngot  %+v\nwant %+v", got.Metrics, want.Metrics)
	}
	lat, _ := got.Find("lat_seconds")
	if n := len(lat.Buckets); n != 4 || !math.IsInf(lat.Buckets[n-1].UpperBound, 1) || lat.Buckets[n-1].Count != 2 {
		t.Fatalf("lat_seconds buckets %+v, want 4 ending in +Inf with 2", lat.Buckets)
	}
}

// TestDecodeSnapshotRejects: what another process sent is refused
// before anything merges it when it is not JSON, or breaks an
// invariant a registry's own snapshot keeps.
func TestDecodeSnapshotRejects(t *testing.T) {
	for _, body := range []string{
		`this is { not json`,
		`{"metrics":[{"name":"x","kind":"summary"}]}`,
		`{"metrics":[{"name":"x total","kind":"counter"}]}`,
		`{"metrics":[{"name":"x{a=\"1\"","kind":"gauge"}]}`,
		`{"metrics":[{"name":"h","kind":"histogram","buckets":[{"le":"1","count":1},{"le":"0.5","count":1}]}]}`,
		`{"metrics":[{"name":"h","kind":"histogram","buckets":[{"le":"1","count":1},{"le":"1","count":1}]}]}`,
		`{"metrics":[{"name":"h","kind":"histogram","buckets":[{"le":"NaN","count":1}]}]}`,
		`{"metrics":[{"name":"h","kind":"histogram","buckets":[{"le":"1","count":2},{"le":"+Inf","count":1}]}]}`,
		`{"metrics":[{"name":"h","kind":"histogram","buckets":[{"le":"+Inf","count":-1}]}]}`,
		`{"metrics":[{"name":"h","kind":"histogram","buckets":[{"count":1}]}]}`,
	} {
		if _, err := DecodeSnapshot([]byte(body)); err == nil {
			t.Errorf("DecodeSnapshot(%s) accepted, want error", body)
		}
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

// TestMergedSnapshotExposes checks the merged snapshot writes the
// exposition text the contentionlb /metrics page serves.
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
	for _, want := range []string{
		"# TYPE fleet_reqs_total counter\nfleet_reqs_total 6\n",
		"# TYPE fleet_lat_seconds histogram\n",
		`fleet_lat_seconds_bucket{le="0.1"} 2` + "\n",
		`fleet_lat_seconds_bucket{le="+Inf"} 2` + "\n",
		"fleet_lat_seconds_count 2\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("merged exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// FuzzDecodeSnapshot: the scrape decoder never panics, and whatever it
// accepts passes validation, re-encodes to JSON that decodes to the
// same snapshot, and renders as exposition text. The seed corpus is in
// testdata/fuzz/FuzzDecodeSnapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if err := snap.validate(); err != nil {
			t.Fatalf("accepted snapshot fails validation: %v", err)
		}
		again, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		back, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot refused: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(withoutEmptyBuckets(back), withoutEmptyBuckets(snap)) {
			t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", snap.Metrics, back.Metrics)
		}
		if err := snap.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

// withoutEmptyBuckets maps an empty bucket list to nil, the one
// difference a JSON round trip may make: "buckets" is omitempty.
func withoutEmptyBuckets(s Snapshot) Snapshot {
	ms := slices.Clone(s.Metrics)
	for i := range ms {
		if len(ms[i].Buckets) == 0 {
			ms[i].Buckets = nil
		}
	}
	return Snapshot{Metrics: ms}
}
