package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contention/internal/obs"
)

// withClusterTelemetry enables recording for one test and restores the
// prior state afterwards.
func withClusterTelemetry(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

// memberMetricsPage is the metrics snapshot the fake members serve as
// JSON — a counter plus a stage histogram, the families /debug/fleet
// digests.
func memberMetricsPage(responses int, decodeFastCount int) string {
	snap := obs.Snapshot{Metrics: []obs.MetricSnapshot{
		{Name: "serve_responses_total{outcome=\"ok\"}", Kind: "counter", Value: float64(responses)},
		{Name: obs.MetricServeStageSeconds + "{stage=\"decode\"}", Kind: "histogram",
			Count: int64(decodeFastCount), Sum: 0.001 * float64(decodeFastCount),
			Buckets: []obs.BucketSnapshot{
				{UpperBound: 0.001, Count: int64(decodeFastCount)},
				{UpperBound: 0.01, Count: int64(decodeFastCount)},
			}},
	}}
	page, err := json.Marshal(snap)
	if err != nil {
		panic(err)
	}
	return string(page)
}

// TestFleetScrapeMerge pins the aggregation rules: members exposing
// /metrics are parsed and summed under fleet_*, members answering 404
// are skipped, and a member serving garbage or a 500 is left out
// without poisoning the merge.
func TestFleetScrapeMerge(t *testing.T) {
	withClusterTelemetry(t)
	c, fl, _ := newTestCluster(t, 3, nil)
	f := NewFleet(c, 0)

	fl.current(0).metrics.Store(memberMetricsPage(5, 10))
	fl.current(1).metrics.Store(memberMetricsPage(7, 30))
	// Replica 2 keeps its default "" page -> 404, the daemon-without-
	// -metrics shape.

	if n := f.ScrapeOnce(context.Background()); n != 2 {
		t.Fatalf("ScrapeOnce = %d members, want 2", n)
	}

	merged, members := f.Merged()
	if members != 2 {
		t.Fatalf("Merged members = %d, want 2", members)
	}
	if m, ok := merged.Find(`fleet_serve_responses_total{outcome="ok"}`); !ok || m.Value != 12 {
		t.Fatalf("fleet responses = %+v ok=%v, want summed 12", m, ok)
	}
	h, ok := merged.Find("fleet_" + obs.MetricServeStageSeconds + `{stage="decode"}`)
	if !ok || h.Count != 40 {
		t.Fatalf("fleet decode histogram = %+v ok=%v, want merged count 40", h, ok)
	}
	if len(h.Buckets) != 2 || h.Buckets[0].Count != 40 {
		t.Fatalf("fleet decode buckets = %+v, want per-bound sums", h.Buckets)
	}

	// A member serving an undecodable page is left out; the other
	// members still merge.
	fl.current(2).metrics.Store("this is { not json")
	if n := f.ScrapeOnce(context.Background()); n != 2 {
		t.Fatalf("ScrapeOnce with garbage member = %d, want 2", n)
	}
	merged, _ = f.Merged()
	if m, ok := merged.Find(`fleet_serve_responses_total{outcome="ok"}`); !ok || m.Value != 12 {
		t.Fatalf("fleet responses with garbage member = %+v ok=%v, want 12", m, ok)
	}

	// So is a 500.
	fl.current(2).mfail.Store(true)
	if n := f.ScrapeOnce(context.Background()); n != 2 {
		t.Fatalf("ScrapeOnce with failing member = %d, want 2", n)
	}
}

// TestFleetStatusAndDebugPage drives /debug/fleet: the JSON digest must
// carry members, scrape state, merged per-stage quantiles, and SLO
// status, with or without ?format=json (the parameter is ignored).
func TestFleetStatusAndDebugPage(t *testing.T) {
	withClusterTelemetry(t)
	slo, err := obs.NewSLOTracker(obs.SLOConfig{LatencyThresholdSeconds: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c, fl, _ := newTestCluster(t, 2, func(cfg *testConfig) { cfg.SLO = slo })
	f := NewFleet(c, 0)
	fl.current(0).metrics.Store(memberMetricsPage(3, 20))
	fl.current(1).metrics.Store(memberMetricsPage(4, 20))
	f.ScrapeOnce(context.Background())

	st := f.Status()
	if st.ReplicasUp != 2 || len(st.Members) != 2 || st.ScrapedMembers != 2 {
		t.Fatalf("status %+v, want 2 up / 2 members / 2 scraped", st)
	}
	if st.ScrapedAt == "" {
		t.Error("ScrapedAt missing after a scrape")
	}
	if st.SLO == nil {
		t.Error("SLO status missing")
	}
	found := false
	for _, s := range st.Stages {
		if s.Tier == "serve" && s.Stage == "decode" {
			found = true
			if s.Count != 40 || s.P50ms <= 0 || s.P99ms < s.P50ms {
				t.Errorf("serve/decode stage = %+v, want merged count 40 and sane quantiles", s)
			}
		}
	}
	if !found {
		t.Fatalf("no serve/decode stage in %+v", st.Stages)
	}

	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	for _, path := range []string{"?format=json", ""} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %q: content type %q", path, ct)
		}
		var decoded FleetStatus
		err = json.NewDecoder(resp.Body).Decode(&decoded)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if decoded.ReplicasUp != 2 || decoded.ScrapedMembers != 2 || len(decoded.Stages) == 0 || decoded.SLO == nil {
			t.Fatalf("GET %q: JSON digest %+v", path, decoded)
		}
	}
}

// TestFleetMetricsHandler pins the balancer's merged exposition: one
// text page carrying both the local cluster_* families and the scraped
// fleet_* families.
func TestFleetMetricsHandler(t *testing.T) {
	withClusterTelemetry(t)
	c, fl, front := newTestCluster(t, 2, nil)
	// Route one request so local cluster counters move.
	if code, _ := postPredict(t, front, predictBody(1)); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	f := NewFleet(c, 0)
	fl.current(0).metrics.Store(memberMetricsPage(9, 5))
	f.ScrapeOnce(context.Background())

	ts := httptest.NewServer(f.MetricsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	if !strings.Contains(page, "\n"+`fleet_serve_responses_total{outcome="ok"} 9`+"\n") {
		t.Errorf("fleet series missing from merged page:\n%s", page)
	}
	if !strings.Contains(page, "\n"+obs.MetricClusterStageSeconds+`_count{stage="route"} `) {
		t.Errorf("local cluster series missing from merged page:\n%s", page)
	}
}
