package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"contention/internal/core"
	"contention/internal/obs"
	"contention/internal/surface"
)

// withTracing enables telemetry and clears the process tracer for one
// test, restoring both afterwards.
func withTracing(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	obs.DefaultTracer().Reset()
	t.Cleanup(func() {
		obs.SetEnabled(prev)
		obs.DefaultTracer().Reset()
	})
}

// spansForTrace filters the process tracer down to one trace id.
func spansForTrace(tc obs.TraceContext) []obs.SpanRecord {
	want := obs.HexID(tc.TraceID)
	var out []obs.SpanRecord
	for _, s := range obs.DefaultTracer().Spans() {
		if s.Trace == want {
			out = append(out, s)
		}
	}
	return out
}

const compBody = `{"kind":"comp","dcomp":2.5,"contenders":[{"comm_fraction":0.3,"msg_words":500}]}`

// TestTraceSpanTreeFromHeader pins the serve-side span tree: a sampled
// X-Contention-Trace header produces a "request" root span parented to
// the caller's span, with every stage span a child of that root — the
// linkage the cross-process timeline depends on.
func TestTraceSpanTreeFromHeader(t *testing.T) {
	withTracing(t)
	_, ts := newTestServer(t, Config{Window: -1})
	up := obs.TraceContext{TraceID: 0xabc, SpanID: 0xdef, Sampled: true}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(compBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, up.String())
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	spans := spansForTrace(up)
	var root obs.SpanRecord
	for _, s := range spans {
		if s.Actor == "serve" && s.Name == "request" {
			root = s
		}
	}
	if root.Span == "" {
		t.Fatalf("no serve/request root span in %+v", spans)
	}
	if root.Parent != obs.HexID(up.SpanID) {
		t.Fatalf("root parent = %q, want caller span %q", root.Parent, obs.HexID(up.SpanID))
	}
	stages := map[string]bool{}
	for _, s := range spans {
		if s == root {
			continue
		}
		if s.Parent != root.Span {
			t.Errorf("stage span %s/%s parent = %q, want root %q", s.Actor, s.Name, s.Parent, root.Span)
		}
		stages[s.Name] = true
	}
	for _, want := range []string{"decode", "admission", "encode"} {
		if !stages[want] {
			t.Errorf("stage %q missing from span tree %v", want, stages)
		}
	}
}

// TestTraceUpstreamVerdictHonored pins head-based sampling: a valid
// but unsampled upstream context must suppress recording even when the
// local sampler would have said yes, and must not be re-rooted.
func TestTraceUpstreamVerdictHonored(t *testing.T) {
	withTracing(t)
	_, ts := newTestServer(t, Config{Window: -1, Sampler: obs.NewSampler(1)})
	up := obs.TraceContext{TraceID: 0x777, SpanID: 0x8, Sampled: false}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(compBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, up.String())
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Operational spans (batch-flush etc.) are fine; nothing may carry a
	// trace id, and no request root may exist.
	for _, s := range obs.DefaultTracer().Spans() {
		if s.Trace != "" || s.Name == "request" {
			t.Fatalf("unsampled request recorded span %+v", s)
		}
	}

	// A headless request through the same server IS sampled (fresh root,
	// no parent) — proving the sampler works and only the upstream
	// verdict suppressed the first request.
	code, _ := post(t, ts.Client(), ts.URL+"/v1/predict", compBody)
	if code != http.StatusOK {
		t.Fatalf("headless status %d", code)
	}
	spans := obs.DefaultTracer().Spans()
	var root *obs.SpanRecord
	for i, s := range spans {
		if s.Name == "request" {
			root = &spans[i]
		}
	}
	if root == nil || root.Trace == "" || root.Parent != "" {
		t.Fatalf("headless sampled request: want fresh parentless root, got %+v", spans)
	}
}

// TestTraceBinaryInBandWinsOverHeader pins the precedence rule: when a
// binary request carries both an in-band trace block and a trace
// header, the in-band context wins.
func TestTraceBinaryInBandWinsOverHeader(t *testing.T) {
	withTracing(t)
	_, ts := newTestServer(t, Config{Window: -1})
	d := 2.5
	wire := &Request{Kind: "comp", Dcomp: &d,
		Contenders: []ContenderSpec{{CommFraction: 0.3, MsgWords: 500}}}
	inband := obs.TraceContext{TraceID: 0x1111, SpanID: 0x2, Sampled: true}
	header := obs.TraceContext{TraceID: 0x9999, SpanID: 0x3, Sampled: true}
	payload, err := AppendBinaryRequestTraced(nil, wire, inband)
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", bytes.NewReader(payload))
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set(TraceHeader, header.String())
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := spansForTrace(header); len(got) != 0 {
		t.Fatalf("header trace recorded %d spans, in-band should have won: %+v", len(got), got)
	}
	spans := spansForTrace(inband)
	foundRoot := false
	for _, s := range spans {
		if s.Name == "request" && s.Parent == obs.HexID(inband.SpanID) {
			foundRoot = true
		}
	}
	if !foundRoot {
		t.Fatalf("no root parented to the in-band context in %+v", spans)
	}
}

// TestBinaryTraceBlockRoundTrip pins the in-band encoding at the
// decoder level, plus its fail-closed rejections: truncation, a zero
// trace id, and unknown flag bits are typed 4xx errors.
func TestBinaryTraceBlockRoundTrip(t *testing.T) {
	d := 2.5
	wire := &Request{Kind: "comp", Dcomp: &d,
		Contenders: []ContenderSpec{{CommFraction: 0.3, MsgWords: 500}}}
	tc := obs.TraceContext{TraceID: 0xdeadbeef, SpanID: 0xcafe, Sampled: true}

	traced, err := AppendBinaryRequestTraced(nil, wire, tc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AppendBinaryRequest(nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := AppendBinaryRequestTraced(nil, wire, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, zero) {
		t.Fatal("zero trace context must encode identically to the untraced request")
	}

	decode := func(payload []byte) (*workspace, error) {
		ws := new(workspace)
		return ws, (binaryWire{}).decode(bytes.NewReader(payload), ws)
	}

	ws, err := decode(traced)
	if err != nil {
		t.Fatal(err)
	}
	if ws.tc != tc {
		t.Fatalf("decoded trace context %+v, want %+v", ws.tc, tc)
	}
	if ws, err := decode(plain); err != nil || ws.tc.Valid() {
		t.Fatalf("untraced request: err=%v tc=%+v, want zero context", err, ws.tc)
	}

	// Payload layout: [0:4] length prefix, [4] version, [5] kind,
	// [6] flags, [7] count, [8:25] trace block (id, span, flags).
	corrupt := func(name string, mutate func(b []byte), wantMsg string) {
		b := append([]byte(nil), traced...)
		mutate(b)
		_, err := decode(b)
		var reqErr *RequestError
		if err == nil || !errors.As(err, &reqErr) {
			t.Fatalf("%s: err = %v, want 4xx RequestError", name, err)
		}
		if !strings.Contains(err.Error(), wantMsg) {
			t.Errorf("%s: err %q does not mention %q", name, err, wantMsg)
		}
	}
	corrupt("zero trace id", func(b []byte) {
		for i := 8; i < 16; i++ {
			b[i] = 0
		}
	}, "zero trace id")
	corrupt("unknown trace flags", func(b []byte) { b[24] |= 0x02 }, "unknown trace flags")

	// Truncated block: header declares a trace block but the payload
	// ends inside it.
	short := []byte{0, 0, 0, 0, binVersion, binKindComp, binFlagTrace, 0, 1, 2, 3}
	short[0] = byte(len(short) - 4)
	if _, err := decode(short); err == nil || !strings.Contains(err.Error(), "trace block truncated") {
		t.Fatalf("truncated trace block: err = %v", err)
	}
}

var hexIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestRequestIDCorrelation pins the request-id satellite: a client id
// is echoed on success and failure (header and error body), and error
// responses without one get a minted 16-hex id so every failure is
// correlatable.
func TestRequestIDCorrelation(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: -1})

	do := func(body, rid string) *http.Response {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if rid != "" {
			req.Header.Set(RequestIDHeader, rid)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Success with a client id: echoed in the header.
	resp := do(compBody, "req-abc-123")
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(RequestIDHeader) != "req-abc-123" {
		t.Fatalf("success echo: status %d header %q", resp.StatusCode, resp.Header.Get(RequestIDHeader))
	}

	// Error with a client id: echoed in header AND body.
	resp = do(`{"kind":"nope"}`, "req-err-7")
	var envelope struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || envelope.Error == "" {
		t.Fatalf("error status %d envelope %+v", resp.StatusCode, envelope)
	}
	if envelope.RequestID != "req-err-7" || resp.Header.Get(RequestIDHeader) != "req-err-7" {
		t.Fatalf("client id not echoed: body %q header %q", envelope.RequestID, resp.Header.Get(RequestIDHeader))
	}

	// Error without a client id: minted, same id in header and body.
	resp = do(`{"kind":"nope"}`, "")
	envelope = struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}{}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if !hexIDRe.MatchString(envelope.RequestID) {
		t.Fatalf("minted id %q is not 16 hex digits", envelope.RequestID)
	}
	if resp.Header.Get(RequestIDHeader) != envelope.RequestID {
		t.Fatalf("header id %q != body id %q", resp.Header.Get(RequestIDHeader), envelope.RequestID)
	}
}

// rewindBody is a resettable no-alloc request body for the warm-path pin.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// reuseWriter is a ResponseWriter that keeps one header map and one body
// buffer across requests and allocates nothing itself, so a handler's
// allocations are its own.
type reuseWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *reuseWriter) Header() http.Header { return w.h }

func (w *reuseWriter) WriteHeader(status int) { w.status = status }

func (w *reuseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *reuseWriter) reset() {
	clear(w.h)
	w.status = 0
	w.body = w.body[:0]
}

// TestUnsampledWarmPathAllocationFree is the serving path's allocation
// contract: with telemetry enabled, tracing compiled in, an SLO tracker
// attached, and sampling OFF, a fast-path request through the predict
// handler — decode, admission, surface lookup, outcome and latency
// bookkeeping, SLO recording, response encoding and headers — allocates
// nothing, on the binary wire and on the JSON wire alike. The pin holds
// the workspace handlePredict would borrow from the pool: under the race
// detector sync.Pool drops items on purpose.
func TestUnsampledWarmPathAllocationFree(t *testing.T) {
	withTracing(t)
	cal := SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	surf, err := surface.Build(cal.Tables, surface.Config{MaxContenders: 16, GridCells: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.AttachSurface(surf); err != nil {
		t.Fatal(err)
	}
	slo, err := obs.NewSLOTracker(obs.SLOConfig{LatencyThresholdSeconds: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pred: pred, Window: -1, FastPath: true, SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d := 2.5
	wireReq := &Request{Kind: "comp", Dcomp: &d,
		Contenders: []ContenderSpec{{CommFraction: 0.25, MsgWords: 500}, {CommFraction: 0.25, MsgWords: 500}}}
	binBody, err := AppendBinaryRequest(nil, wireReq)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(wireReq)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{
		{ContentTypeBinary, binBody},
		{"application/json", jsonBody},
	} {
		rd := bytes.NewReader(tc.body)
		req := httptest.NewRequest("POST", "/v1/predict", nil)
		req.Header.Set("Content-Type", tc.contentType)
		req.Body = rewindBody{rd}
		w := &reuseWriter{h: http.Header{}}
		ws := new(workspace)
		serve := func() {
			rd.Reset(tc.body)
			w.reset()
			s.predictHTTP(w, req, ws)
		}

		// Warm up and confirm this request actually takes the fast path.
		serve()
		var resp Response
		if tc.contentType == ContentTypeBinary {
			resp, err = DecodeBinaryResponse(w.body)
		} else {
			err = json.Unmarshal(w.body, &resp)
		}
		if w.status != http.StatusOK || err != nil || !resp.Fast {
			t.Fatalf("%s warmup: status %d err=%v fast=%v — pin needs the surface fast path", tc.contentType, w.status, err, resp.Fast)
		}
		if ct := w.h.Get("Content-Type"); ct != tc.contentType {
			t.Fatalf("%s: response content type %q", tc.contentType, ct)
		}

		if allocs := testing.AllocsPerRun(200, serve); allocs != 0 {
			t.Fatalf("%s: unsampled warm path allocates %.1f objects/op with tracing compiled in, want 0", tc.contentType, allocs)
		}
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.contentType, w.status)
		}
	}

	if got := obs.DefaultTracer().Spans(); len(got) != 0 {
		t.Fatalf("unsampled warm path recorded %d spans", len(got))
	}
}

// TestTracingNoGoroutineLeak drives sampled and unsampled traffic
// through a batching server and checks shutdown returns the process to
// its starting goroutine count — the tracing path must not spawn or
// strand goroutines.
func TestTracingNoGoroutineLeak(t *testing.T) {
	withTracing(t)
	before := runtime.NumGoroutine()

	s, err := New(Config{Pred: newTestPredictor(t), Window: 200 * time.Microsecond,
		Sampler: obs.NewSampler(2)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	for i := 0; i < 40; i++ {
		code, _ := post(t, ts.Client(), ts.URL+"/v1/predict", compBody)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	ts.Close()
	s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
