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
// are skipped silently, and a member serving garbage counts as a
// scrape error without poisoning the merge.
func TestFleetScrapeMerge(t *testing.T) {
	withClusterTelemetry(t)
	c, fl, _ := newTestCluster(t, 3, nil)
	f := NewFleet(c, 0)

	fl.current(0).metrics.Store(memberMetricsPage(5, 10))
	fl.current(1).metrics.Store(memberMetricsPage(7, 30))
	// Replica 2 keeps its default "" page -> 404, the daemon-without-
	// -metrics shape.

	errsBefore := mFleetScrapeErrors.Value()
	if n := f.ScrapeOnce(context.Background()); n != 2 {
		t.Fatalf("ScrapeOnce = %d members, want 2", n)
	}
	if got := mFleetScrapeErrors.Value(); got != errsBefore {
		t.Fatalf("404 member counted as scrape error (%d -> %d)", errsBefore, got)
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

	// A member serving an undecodable page is a scrape error; the other
	// members still merge.
	fl.current(2).metrics.Store("this is { not json")
	if n := f.ScrapeOnce(context.Background()); n != 2 {
		t.Fatalf("ScrapeOnce with garbage member = %d, want 2", n)
	}
	if got := mFleetScrapeErrors.Value(); got != errsBefore+1 {
		t.Fatalf("garbage page: scrape errors %d -> %d, want +1", errsBefore, got)
	}

	// So is a 500.
	fl.current(2).mfail.Store(true)
	f.ScrapeOnce(context.Background())
	if got := mFleetScrapeErrors.Value(); got != errsBefore+2 {
		t.Fatalf("500 page: scrape errors %d -> %d, want +2", errsBefore, got)
	}
}

// TestFleetStatusAndDebugPage drives /debug/fleet both ways: the JSON
// digest must carry members, scrape state, merged per-stage quantiles,
// and SLO status; the HTML page must render the same tables.
func TestFleetStatusAndDebugPage(t *testing.T) {
	withClusterTelemetry(t)
	slo, err := obs.NewSLOTracker(obs.SLOConfig{
		LatencyThresholdSeconds: 0.1,
		Registry:                obs.NewRegistry(),
	})
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

	resp, err := http.Get(ts.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type %q", ct)
	}
	var decoded FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ReplicasUp != 2 || len(decoded.Stages) == 0 || decoded.SLO == nil {
		t.Fatalf("JSON digest %+v", decoded)
	}

	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	html := string(page)
	for _, want := range []string{"<h1>fleet</h1>", "<h2>members</h2>", "<h2>latency attribution</h2>", "<h2>slo</h2>", "decode"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML page missing %q:\n%s", want, html)
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
	if !strings.Contains(page, "\n"+`cluster_requests_total{outcome="ok"} `) {
		t.Errorf("local cluster series missing from merged page:\n%s", page)
	}
}
