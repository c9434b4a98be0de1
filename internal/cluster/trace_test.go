package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"contention/internal/obs"
	"contention/internal/serve"
)

// withTraceRecording enables telemetry and clears the process tracer,
// restoring both afterwards.
func withTraceRecording(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	obs.DefaultTracer().Reset()
	t.Cleanup(func() {
		obs.SetEnabled(prev)
		obs.DefaultTracer().Reset()
	})
}

// tracePost sends one predict with an explicit trace context.
func tracePost(t *testing.T, front *httptest.Server, body string, tc obs.TraceContext) int {
	t.Helper()
	req, err := http.NewRequest("POST", front.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TraceHeader, tc.String())
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// waitSpansForTrace polls the process tracer until the trace's span set
// stops growing (the lb root span ends in a deferred call that can lag
// the client's receipt of the response).
func waitSpansForTrace(t *testing.T, tc obs.TraceContext, minSpans int) []obs.SpanRecord {
	t.Helper()
	want := obs.HexID(tc.TraceID)
	deadline := time.Now().Add(2 * time.Second)
	for {
		var out []obs.SpanRecord
		for _, s := range obs.DefaultTracer().Spans() {
			if s.Trace == want {
				out = append(out, s)
			}
		}
		if len(out) >= minSpans || time.Now().After(deadline) {
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTracePropagationAcrossFleet is the propagation differential: a
// balancer fronting two real serve replicas (each on its own loopback
// port, reached over HTTP) must turn one sampled client request into
// ONE connected trace — the lb's request/stage/attempt spans and the
// replica's request/stage spans all share the client's trace id and
// form a single parent-linked tree across the process-boundary hop.
func TestTracePropagationAcrossFleet(t *testing.T) {
	withTraceRecording(t)
	c, _, front := newTestCluster(t, 2, func(cfg *testConfig) {
		cfg.Factory = InProcessFactory(InProcConfig{Window: 200 * time.Microsecond})
	})
	if up := c.UpCount(); up != 2 {
		t.Fatalf("replicas up = %d, want 2", up)
	}

	for i := 0; i < 6; i++ {
		client := obs.NewRootContext(true)
		client.SpanID = obs.NewID() // simulate a client-side span as the parent
		if code := tracePost(t, front, predictBody(i), client); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}

		// lb: request + decode + route + attempt + encode; serve: request
		// + decode + admission + compute/surface + encode.
		spans := waitSpansForTrace(t, client, 9)
		byID := map[string]obs.SpanRecord{}
		for _, s := range spans {
			byID[s.Span] = s
		}

		var lbRoot, serveRoot obs.SpanRecord
		lbStages := map[string]obs.SpanRecord{}
		serveStages := map[string]bool{}
		var attempts []obs.SpanRecord
		for _, s := range spans {
			switch {
			case s.Actor == "lb" && s.Name == "request":
				lbRoot = s
			case s.Actor == "lb" && s.Name == "attempt":
				attempts = append(attempts, s)
			case s.Actor == "lb":
				lbStages[s.Name] = s
			case s.Actor == "serve" && s.Name == "request":
				serveRoot = s
			case s.Actor == "serve":
				serveStages[s.Name] = true
			}
		}

		if lbRoot.Span == "" {
			t.Fatalf("request %d: no lb root span in %+v", i, spans)
		}
		if lbRoot.Parent != obs.HexID(client.SpanID) {
			t.Fatalf("request %d: lb root parent %q, want client span %q",
				i, lbRoot.Parent, obs.HexID(client.SpanID))
		}
		for _, name := range []string{"decode", "route", "encode"} {
			s, ok := lbStages[name]
			if !ok {
				t.Fatalf("request %d: lb stage %q missing in %+v", i, name, spans)
			}
			if s.Parent != lbRoot.Span {
				t.Errorf("request %d: lb/%s parent %q, want root %q", i, name, s.Parent, lbRoot.Span)
			}
		}
		if len(attempts) == 0 {
			t.Fatalf("request %d: no lb attempt span", i)
		}
		for _, a := range attempts {
			if a.Parent != lbRoot.Span {
				t.Errorf("request %d: attempt parent %q, want root %q", i, a.Parent, lbRoot.Span)
			}
		}
		if serveRoot.Span == "" {
			t.Fatalf("request %d: no serve root span — trace did not cross the hop: %+v", i, spans)
		}
		parentAttempt, ok := byID[serveRoot.Parent]
		if !ok || parentAttempt.Actor != "lb" || parentAttempt.Name != "attempt" {
			t.Fatalf("request %d: serve root parent %q is not an lb attempt (got %+v)",
				i, serveRoot.Parent, parentAttempt)
		}
		for _, name := range []string{"decode", "encode"} {
			if !serveStages[name] {
				t.Errorf("request %d: serve stage %q missing in %+v", i, name, spans)
			}
		}
		// Connectivity: every span's parent chain must reach the client
		// span — one tree, no orphans.
		for _, s := range spans {
			cur, hops := s, 0
			for cur.Parent != obs.HexID(client.SpanID) {
				next, ok := byID[cur.Parent]
				if !ok {
					t.Fatalf("request %d: span %s/%s has orphan parent %q", i, s.Actor, s.Name, cur.Parent)
				}
				cur = next
				if hops++; hops > 10 {
					t.Fatalf("request %d: parent cycle at %s/%s", i, s.Actor, s.Name)
				}
			}
		}
	}

	// The negative half of the differential: a valid but unsampled
	// context routes fine and records nothing, anywhere.
	unsampled := obs.TraceContext{TraceID: 0xfeed, SpanID: 0xbee, Sampled: false}
	if code := tracePost(t, front, predictBody(99), unsampled); code != http.StatusOK {
		t.Fatalf("unsampled request: status %d", code)
	}
	for _, s := range obs.DefaultTracer().Spans() {
		if s.Trace == obs.HexID(unsampled.TraceID) {
			t.Fatalf("unsampled request recorded span %+v", s)
		}
	}
}

// TestLBStageHistogramsAlwaysOn pins that per-stage attribution does
// not depend on sampling: an unsampled request still lands in every
// cluster_stage_seconds series.
func TestLBStageHistogramsAlwaysOn(t *testing.T) {
	withClusterTelemetry(t)
	_, _, front := newTestCluster(t, 1, nil)
	before := map[string]int64{}
	for _, m := range obs.Default().Snapshot().Metrics {
		if strings.HasPrefix(m.Name, obs.MetricClusterStageSeconds+"{") {
			before[m.Name] = m.Count
		}
	}
	if code, _ := postPredict(t, front, predictBody(3)); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, stage := range []string{"decode", "route", "encode"} {
		name := obs.MetricClusterStageSeconds + `{stage="` + stage + `"}`
		m, ok := obs.Default().Snapshot().Find(name)
		if !ok || m.Count <= before[name] {
			t.Errorf("stage %s histogram did not move: %+v ok=%v", stage, m, ok)
		}
	}
}

var lbHexIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestLBRequestIDForwardingAndEcho pins request-id correlation through
// the balancer: a client id is forwarded to the replica and echoed on
// success; error envelopes carry the client id when sent and a minted
// 16-hex id when not.
func TestLBRequestIDForwardingAndEcho(t *testing.T) {
	// Tight routing budget so the failure half (a stalled replica) turns
	// into an lb-generated timeout envelope quickly. Upstream error
	// bodies are relayed verbatim — a real replica embeds the forwarded
	// id itself — so the envelope cases below use lb-originated errors.
	_, fl, front := newTestCluster(t, 1, func(cfg *testConfig) {
		cfg.perTry = 100 * time.Millisecond
		cfg.timeout = 300 * time.Millisecond
	})

	do := func(rid string) *http.Response {
		req, err := http.NewRequest("POST", front.URL+"/v1/predict", strings.NewReader(predictBody(1)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if rid != "" {
			req.Header.Set(serve.RequestIDHeader, rid)
		}
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Success: forwarded to the replica, echoed to the client.
	resp := do("cli-42")
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(serve.RequestIDHeader) != "cli-42" {
		t.Fatalf("success: status %d echo %q", resp.StatusCode, resp.Header.Get(serve.RequestIDHeader))
	}
	if got, _ := fl.current(0).lastRID.Load().(string); got != "cli-42" {
		t.Fatalf("replica saw X-Request-Id %q, want cli-42", got)
	}

	// Success without an id: nothing minted on the happy path.
	resp = do("")
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(serve.RequestIDHeader) != "" {
		t.Fatalf("plain success: status %d, unexpected header %q",
			resp.StatusCode, resp.Header.Get(serve.RequestIDHeader))
	}

	// Failure: the envelope carries the client id...
	fl.current(0).stallMS.Store(1000)
	resp = do("cli-err")
	var envelope serve.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		t.Fatal("expected a routed failure")
	}
	if envelope.RequestID != "cli-err" || resp.Header.Get(serve.RequestIDHeader) != "cli-err" {
		t.Fatalf("error correlation: body %q header %q, want cli-err", envelope.RequestID,
			resp.Header.Get(serve.RequestIDHeader))
	}

	// ...and a minted one when the client sent none.
	resp = do("")
	envelope = serve.ErrorBody{}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if !lbHexIDRe.MatchString(envelope.RequestID) {
		t.Fatalf("minted request id %q is not 16 hex digits", envelope.RequestID)
	}
	if resp.Header.Get(serve.RequestIDHeader) != envelope.RequestID {
		t.Fatalf("minted id mismatch: header %q body %q",
			resp.Header.Get(serve.RequestIDHeader), envelope.RequestID)
	}
}

// TestReadySLODetail pins the /readyz detail: with an SLO tracker
// configured the body carries burn-rate status, and a breach is
// reported without flipping readiness.
func TestReadySLODetail(t *testing.T) {
	slo, err := obs.NewSLOTracker(obs.SLOConfig{AvailabilityTarget: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	_, _, front := newTestCluster(t, 1, func(cfg *testConfig) {
		cfg.SLO = slo
		cfg.clock = clk
	})

	get := func() (int, map[string]json.RawMessage) {
		resp, err := front.Client().Get(front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get()
	if code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if _, ok := body["slo"]; !ok {
		t.Fatalf("readyz body missing slo detail: %v", body)
	}

	// Burn the budget: readiness must NOT flip (load-shedding on SLO
	// breach would amplify the outage), but the detail must say breach.
	for i := 0; i < 120; i++ {
		slo.Record(clk.Now(), 0.01, false)
	}
	code, body = get()
	if code != http.StatusOK {
		t.Fatalf("breached readyz status %d, want 200 (breach must not flip readiness)", code)
	}
	var st obs.SLOStatus
	if err := json.Unmarshal(body["slo"], &st); err != nil {
		t.Fatal(err)
	}
	if !st.Breach || st.Reason != "availability" {
		t.Fatalf("readyz slo detail %+v, want availability breach", st)
	}
}
