package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"contention/internal/caltrust"
	"contention/internal/core"
)

// postWire sends req on the named wire and decodes the 200 answer.
func postWire(t *testing.T, ts *httptest.Server, contentType string, req *Request) Response {
	t.Helper()
	resp, err := tryPostWire(ts, contentType, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// tryPostWire is postWire returning its failure, for a goroutine other
// than the test's.
func tryPostWire(ts *httptest.Server, contentType string, req *Request) (Response, error) {
	var body []byte
	var err error
	if contentType == ContentTypeBinary {
		body, err = AppendBinaryRequest(nil, req)
	} else {
		body, err = json.Marshal(req)
	}
	if err != nil {
		return Response{}, err
	}
	hr, err := ts.Client().Post(ts.URL+"/v1/predict", contentType, bytes.NewReader(body))
	if err != nil {
		return Response{}, err
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil || hr.StatusCode != http.StatusOK {
		return Response{}, fmt.Errorf("status %d err %v: %s", hr.StatusCode, err, raw)
	}
	var resp Response
	if contentType == ContentTypeBinary {
		resp, err = DecodeBinaryResponse(raw)
	} else {
		err = json.Unmarshal(raw, &resp)
	}
	return resp, err
}

// heterogeneousRequests are off-class for any surface: mixed comm
// fractions, one contender with an I/O fraction.
func heterogeneousRequests() []*Request {
	cs := []ContenderSpec{
		{CommFraction: 0.15, MsgWords: 300},
		{CommFraction: 0.55, MsgWords: 1200, IOFraction: 0.1},
		{CommFraction: 0.35, MsgWords: 40},
	}
	dcomp, j := 2.5, 500
	return []*Request{
		{Kind: "comm", Dir: "to_host", Sets: []DataSetSpec{{N: 20, Words: 700}}, Contenders: cs},
		{Kind: "comp", Dcomp: &dcomp, Contenders: cs},
		{Kind: "comp", Dcomp: &dcomp, J: &j, Contenders: cs},
	}
}

// TestFastPathInlineDP: a FastPath server answers a heterogeneous
// request it has never seen inline — Fast=true, no batch, the bits of
// the direct DP — on both wires, and the request never observes the
// batch-wait stage: it is timed as compute.
func TestFastPathInlineDP(t *testing.T) {
	withTracing(t)
	pred := newTestPredictor(t)
	// The default 1 ms window: a parked request would show up as batch-wait.
	_, ts := newTestServer(t, Config{Pred: pred, FastPath: true})
	ref := newTestPredictor(t)

	waited, computed := stBatchWait.Count(), stCompute.Count()
	n := int64(0)
	for _, req := range heterogeneousRequests() {
		want, err := Direct(ref, req, false)
		if err != nil {
			t.Fatal(err)
		}
		mirror, err := Direct(ref, req, true)
		if err != nil {
			t.Fatal(err)
		}
		if !mirror.Fast || math.Float64bits(mirror.Value) != math.Float64bits(want.Value) {
			t.Fatalf("Direct(tryFast) = %+v, want Fast with the bits of %v", mirror, want.Value)
		}
		for _, wire := range []string{ContentTypeBinary, "application/json"} {
			got := postWire(t, ts, wire, req)
			n++
			if !got.Fast || got.Batch != 0 || got.Degraded {
				t.Fatalf("%s %s: %+v, want a Fast unbatched answer", wire, req.Kind, got)
			}
			if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
				t.Fatalf("%s %s: value %v, direct DP %v", wire, req.Kind, got.Value, want.Value)
			}
		}
	}
	if d := stBatchWait.Count() - waited; d != 0 {
		t.Fatalf("%d inline answers observed batch-wait %d times, want 0", n, d)
	}
	if d := stCompute.Count() - computed; d != n {
		t.Fatalf("compute stage observed %d times for %d inline answers", d, n)
	}
}

// TestFastPathDegradedFallsThrough: the inline DP never answers for a
// calibration that cannot be trusted — with a Stale or Degraded tracker
// a FastPath server still returns the p+1 worst case, flagged, through
// the full pipeline.
func TestFastPathDegradedFallsThrough(t *testing.T) {
	stalePred := newTestPredictor(t)
	stale, err := caltrust.NewTracker(stalePred, caltrust.DefaultTrackerConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := stale.Observe(1.0, 1.01); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200 && stale.State() == caltrust.Fresh; i++ {
		if _, err := stale.Observe(1.0, 3.0); err != nil {
			t.Fatal(err)
		}
	}
	if stale.State() != caltrust.Stale {
		t.Fatalf("tracker still %v after biased residuals", stale.State())
	}
	degradedPred, degraded := degradedTracker(t)

	for _, tc := range []struct {
		name    string
		pred    *core.Predictor
		tracker *caltrust.Tracker
	}{
		{"stale", stalePred, stale},
		{"degraded", degradedPred, degraded},
	} {
		_, ts := newTestServer(t, Config{Pred: tc.pred, Tracker: tc.tracker, FastPath: true})
		for _, req := range heterogeneousRequests() {
			if req.Kind != "comp" {
				continue
			}
			got := postWire(t, ts, ContentTypeBinary, req)
			want := *req.Dcomp * float64(len(req.Contenders)+1)
			if !got.Degraded || got.Fast || got.Value != want {
				t.Fatalf("%s tracker: %+v, want the degraded p+1 answer %v", tc.name, got, want)
			}
		}
	}
}
