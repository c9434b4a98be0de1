package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contention/internal/caltrust"
	"contention/internal/core"
)

// newTestPredictor builds a predictor over the synthetic calibration.
func newTestPredictor(t testing.TB) *core.Predictor {
	t.Helper()
	pred, err := core.NewPredictor(SyntheticCalibration())
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	return pred
}

// newTestServer builds a server (defaults filled) and its HTTP front.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Pred == nil {
		cfg.Pred = newTestPredictor(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends one JSON body and decodes the response.
func post(t testing.TB, client *http.Client, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func TestServeCommMatchesDirect(t *testing.T) {
	s, ts := newTestServer(t, Config{Window: 200 * time.Microsecond})
	body := `{"kind":"comm","dir":"to_back","sets":[{"n":10,"words":512}],
		"contenders":[{"comm_fraction":0.3,"msg_words":500}]}`
	code, out := post(t, ts.Client(), ts.URL+"/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, out)
	}
	want, err := s.cfg.Pred.PredictComm(core.HostToBack,
		[]core.DataSet{{N: 10, Words: 512}},
		[]core.Contender{{CommFraction: 0.3, MsgWords: 500}})
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if got := out["value"].(float64); got != want {
		t.Fatalf("served %v, direct %v", got, want)
	}
	if out["degraded"] != nil {
		t.Fatalf("unexpected degraded answer: %v", out)
	}
}

func TestServeCompWithJAndAuto(t *testing.T) {
	s, ts := newTestServer(t, Config{Window: 200 * time.Microsecond})
	cs := []core.Contender{{CommFraction: 0.4, MsgWords: 900}, {CommFraction: 0.1, MsgWords: 10}}

	code, out := post(t, ts.Client(), ts.URL+"/v1/predict",
		`{"kind":"comp","dcomp":2.5,"contenders":[
			{"comm_fraction":0.4,"msg_words":900},{"comm_fraction":0.1,"msg_words":10}]}`)
	if code != http.StatusOK {
		t.Fatalf("auto-j status %d: %v", code, out)
	}
	want, err := s.cfg.Pred.PredictComp(2.5, cs)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if got := out["value"].(float64); got != want {
		t.Fatalf("auto-j served %v, direct %v", got, want)
	}

	code, out = post(t, ts.Client(), ts.URL+"/v1/predict",
		`{"kind":"comp","dcomp":2.5,"j":500,"contenders":[
			{"comm_fraction":0.4,"msg_words":900},{"comm_fraction":0.1,"msg_words":10}]}`)
	if code != http.StatusOK {
		t.Fatalf("explicit-j status %d: %v", code, out)
	}
	want, err = s.cfg.Pred.PredictCompWithJ(2.5, cs, 500)
	if err != nil {
		t.Fatalf("direct with j: %v", err)
	}
	if got := out["value"].(float64); got != want {
		t.Fatalf("explicit-j served %v, direct %v", got, want)
	}
}

func TestServeReplicatesP(t *testing.T) {
	s, ts := newTestServer(t, Config{Window: -1})
	code, out := post(t, ts.Client(), ts.URL+"/v1/predict",
		`{"kind":"comp","dcomp":1,"p":4,"contenders":[{"comm_fraction":0.2,"msg_words":100}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	cs := make([]core.Contender, 4)
	for i := range cs {
		cs[i] = core.Contender{CommFraction: 0.2, MsgWords: 100}
	}
	want, err := s.cfg.Pred.PredictComp(1, cs)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if got := out["value"].(float64); got != want {
		t.Fatalf("served %v, direct %v", got, want)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: -1})
	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"malformed", `{"kind":`},
		{"unknown field", `{"kind":"comp","dcomp":1,"contenders":[],"bogus":1}`},
		{"missing kind", `{"contenders":[]}`},
		{"bad kind", `{"kind":"nope","contenders":[]}`},
		{"comm missing dir", `{"kind":"comm","sets":[{"n":1,"words":1}],"contenders":[]}`},
		{"comm no sets", `{"kind":"comm","dir":"to_back","contenders":[]}`},
		{"negative words", `{"kind":"comm","dir":"to_back","sets":[{"n":1,"words":-5}],"contenders":[]}`},
		{"comp missing dcomp", `{"kind":"comp","contenders":[]}`},
		{"negative dcomp", `{"kind":"comp","dcomp":-1,"contenders":[]}`},
		{"nan dcomp", `{"kind":"comp","dcomp":NaN,"contenders":[]}`},
		{"inf dcomp", `{"kind":"comp","dcomp":1e999,"contenders":[]}`},
		{"negative j", `{"kind":"comp","dcomp":1,"j":-3,"contenders":[]}`},
		{"negative p", `{"kind":"comp","dcomp":1,"p":-2,"contenders":[{"comm_fraction":0.1,"msg_words":1}]}`},
		{"huge p", `{"kind":"comp","dcomp":1,"p":100000,"contenders":[{"comm_fraction":0.1,"msg_words":1}]}`},
		{"bad fraction", `{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":1.5,"msg_words":1}]}`},
		{"trailing data", `{"kind":"comp","dcomp":1,"contenders":[]} {"x":1}`},
		{"comm with dcomp", `{"kind":"comm","dir":"to_back","sets":[{"n":1,"words":1}],"dcomp":1,"contenders":[]}`},
	}
	for _, tc := range cases {
		code, out := post(t, ts.Client(), ts.URL+"/v1/predict", tc.body)
		if code < 400 || code > 499 {
			t.Errorf("%s: status %d (want 4xx), body %v", tc.name, code, out)
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("%s: no error field in %v", tc.name, out)
		}
	}
}

func TestServeDegradedOnStaleTracker(t *testing.T) {
	pred := newTestPredictor(t)
	tracker, err := caltrust.NewTracker(pred, caltrust.DefaultTrackerConfig())
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	_, ts := newTestServer(t, Config{Pred: pred, Tracker: tracker, Window: -1})

	// Drive the tracker Stale through the observe endpoint: a healthy
	// baseline followed by a sustained shift trips the Page-Hinkley
	// detector (it detects changes, not constant offsets).
	for i := 0; i < 30; i++ {
		if code, _ := post(t, ts.Client(), ts.URL+"/v1/observe", `{"predicted":1.0,"observed":1.01}`); code != http.StatusOK {
			t.Fatalf("baseline observe status %d", code)
		}
	}
	for i := 0; i < 200 && tracker.State() == caltrust.Fresh; i++ {
		code, _ := post(t, ts.Client(), ts.URL+"/v1/observe", `{"predicted":1.0,"observed":3.0}`)
		if code != http.StatusOK {
			t.Fatalf("observe status %d", code)
		}
	}
	if tracker.State() != caltrust.Stale {
		t.Fatalf("tracker still %v after biased residuals", tracker.State())
	}

	body := `{"kind":"comp","dcomp":2,"p":3,"contenders":[{"comm_fraction":0.2,"msg_words":100}]}`
	code, out := post(t, ts.Client(), ts.URL+"/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["degraded"] != true {
		t.Fatalf("expected degraded answer, got %v", out)
	}
	// Worst case: dcomp × (p+1) with p = 3 contenders.
	if got, want := out["value"].(float64), 2*4.0; got != want {
		t.Fatalf("degraded value %v, want %v", got, want)
	}

	// Health reflects the trust state.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if h["trust"] != "stale" || h["status"] != "degraded" {
		t.Fatalf("healthz %v, want stale/degraded", h)
	}
}

func TestServeMicroBatchesSharedMix(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: 5 * time.Millisecond})
	const n = 24
	body := func(i int) string {
		return fmt.Sprintf(`{"kind":"comp","dcomp":%d.5,"contenders":[{"comm_fraction":0.3,"msg_words":500}]}`, i+1)
	}
	type res struct {
		batch float64
		code  int
	}
	results := make(chan res, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			code, out := post(t, ts.Client(), ts.URL+"/v1/predict", body(i))
			b, _ := out["batch"].(float64)
			results <- res{batch: b, code: code}
		}(i)
	}
	maxBatch := 0.0
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if r.batch > maxBatch {
			maxBatch = r.batch
		}
	}
	// All share one contender mix: at least some requests must have been
	// answered together in a multi-request batch.
	if maxBatch < 2 {
		t.Fatalf("no micro-batching observed (max batch %v)", maxBatch)
	}
}

func TestServeDeadline(t *testing.T) {
	s, err := New(Config{Pred: newTestPredictor(t), Window: time.Hour, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// With an hour-long window and nothing to force an early flush, the
	// request must hit its deadline.
	code, out := post(t, ts.Client(), ts.URL+"/v1/predict",
		`{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":0.2,"msg_words":100}]}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %v", code, out)
	}
}

func TestServeAdmissionRejects(t *testing.T) {
	pred := newTestPredictor(t)
	s, err := New(Config{Pred: pred, Window: time.Hour, MaxInFlight: 1, MaxQueue: 1, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	q := query{kind: "comp", dcomp: 1, cs: []core.Contender{{CommFraction: 0.2, MsgWords: 100}}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	// Fill the slot and the queue with two parked requests, then a third
	// must be rejected with ErrQueueFull.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Predict(ctx, q)
			errs <- err
		}()
	}
	deadline := time.Now().Add(time.Second)
	for s.adm.InFlight()+s.adm.Waiting() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("parked requests never admitted (inflight %d waiting %d)", s.adm.InFlight(), s.adm.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	_, err = s.Predict(ctx, q)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third request: %v, want ErrQueueFull", err)
	}
	<-errs
	<-errs
}

func TestServeClosedRejects(t *testing.T) {
	s, err := New(Config{Pred: newTestPredictor(t), Window: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Close()
	_, err = s.Predict(context.Background(),
		query{kind: "comp", dcomp: 1, cs: nil})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("predict after close: %v, want ErrClosed", err)
	}
}

func TestDecodeRejectsOversizedBody(t *testing.T) {
	big := bytes.Repeat([]byte("x"), MaxBodyBytes+100)
	body := `{"kind":"comp","dcomp":1,"contenders":[],"pad":"` + string(big) + `"}`
	if _, err := DecodeRequest(strings.NewReader(body)); err == nil {
		t.Fatal("oversized body accepted")
	}
}

// Predict answers one validated query, micro-batching it with
// concurrent peers. It blocks until the answer is computed, the context
// ends (ErrDeadline), or admission rejects the request.
func (s *Server) Predict(ctx context.Context, q query) (Response, error) {
	return s.predict(ctx, &q, nil, time.Time{}, nil)
}

// Draining reports whether Drain (or Close) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }
