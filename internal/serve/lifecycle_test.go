package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contention/internal/caltrust"
	"contention/internal/core"
)

// TestCloseFlushesParkedWindow pins the shutdown ordering fix: a
// request parked in the batch window when Close is called must still be
// answered (Close flushes the pending groups itself), and Close must
// not return while that flush is evaluating into the predictor.
func TestCloseFlushesParkedWindow(t *testing.T) {
	s, err := newServer(Config{
		Pred:   newTestPredictor(t),
		Window: 10 * time.Second, // far beyond the test: only Close can flush
	}, tunedWith(func(tun *tuning) { tun.maxBatch = 64 }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var inFlush atomic.Int64
	flushed := make(chan struct{}, 4)
	s.flushStall = func() {
		inFlush.Add(1)
		time.Sleep(5 * time.Millisecond)
		flushed <- struct{}{}
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), query{
			kind: "comp", dcomp: 1,
			cs: []core.Contender{{CommFraction: 0.3, MsgWords: 500}},
		})
		done <- err
	}()

	// Wait until the request is parked in the window.
	deadline := time.After(2 * time.Second)
	for {
		s.mu.Lock()
		parked := s.pendingN
		s.mu.Unlock()
		if parked == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("request never parked in the batch window")
		case <-time.After(time.Millisecond):
		}
	}

	s.Close()
	if n := inFlush.Load(); n != 1 {
		t.Fatalf("Close performed %d flushes, want exactly 1", n)
	}
	select {
	case <-flushed:
	default:
		t.Fatal("Close returned before the flush finished")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked request failed across Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked request never completed after Close")
	}

	// Idempotence: a second Close is a no-op, not a second flush.
	s.Close()
	if n := inFlush.Load(); n != 1 {
		t.Fatalf("second Close re-flushed (%d flushes)", n)
	}
}

// TestCloseStopsWindowTimer pins the other half of the ordering fix:
// once Close has flushed, the armed window timer must not fire a second
// flush into the closed server.
func TestCloseStopsWindowTimer(t *testing.T) {
	clk := newFakeClock()
	s, err := newServer(Config{
		Pred:   newTestPredictor(t),
		Window: 20 * time.Millisecond,
	}, tunedWith(func(tun *tuning) { tun.maxBatch, tun.clock = 64, clk }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var flushes atomic.Int64
	s.flushStall = func() { flushes.Add(1) }

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = s.Predict(context.Background(), query{
			kind: "comp", dcomp: 1,
			cs: []core.Contender{{CommFraction: 0.2, MsgWords: 100}},
		})
	}()
	clk.armed(1) // the request parked and opened the window
	s.Close()
	<-done
	if at := clk.armed(0); len(at) != 0 {
		t.Fatalf("window timer still armed for %v after Close", at)
	}
	// Run past the original window: if Close failed to stop the timer,
	// flushWindow would run (and with the old code, evaluate into a
	// closed server).
	clk.advance(60 * time.Millisecond)
	if n := flushes.Load(); n != 1 {
		t.Fatalf("%d flushes after Close + window elapse, want 1", n)
	}
}

// degradedTracker builds a tracker whose strict validation fails, so it
// adopts in the Degraded state.
func degradedTracker(t *testing.T) (*core.Predictor, *caltrust.Tracker) {
	t.Helper()
	cal := SyntheticCalibration()
	cal.Tables.CompOnComm = []float64{3.0, 0.2, 3.5, 4.0, 4.1, 4.2, 4.3, 4.4} // grossly non-monotone
	pred := core.NewPredictorLenient(cal)
	tr, err := caltrust.NewTracker(pred, nil)
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	if tr.State() != caltrust.Degraded {
		t.Fatalf("fixture tracker state %v, want degraded", tr.State())
	}
	return pred, tr
}

func getReady(t *testing.T, ts *httptest.Server) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestReadyzLifecycle(t *testing.T) {
	pred := newTestPredictor(t)
	tracker, err := caltrust.NewTracker(pred, nil)
	if err != nil {
		t.Fatalf("tracker: %v", err)
	}
	s, ts := newTestServer(t, Config{Pred: pred, Tracker: tracker, Window: -1})

	if resp := getReady(t, ts); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d, want 200", resp.StatusCode)
	}

	s.Drain()
	resp := getReady(t, ts)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining /readyz carries no Retry-After")
	}

	// Draining gates readiness only — the predict path stays up for
	// requests already admitted upstream.
	code, _ := post(t, ts.Client(), ts.URL+"/v1/predict",
		`{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":0.3,"msg_words":500}]}`)
	if code != http.StatusOK {
		t.Fatalf("predict while draining = %d, want 200", code)
	}
}

func TestReadyzDegradedTracker(t *testing.T) {
	pred, tracker := degradedTracker(t)
	_, ts := newTestServer(t, Config{Pred: pred, Tracker: tracker, Window: -1})
	resp := getReady(t, ts)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded /readyz carries no Retry-After")
	}
}

// TestReadyzStaleStaysReady: a merely Stale calibration keeps serving —
// conservative p+1 answers are still useful capacity — while /healthz
// honestly reports the degradation.
func TestReadyzStaleStaysReady(t *testing.T) {
	pred := newTestPredictor(t)
	tracker, err := caltrust.NewTracker(pred, nil)
	if err != nil {
		t.Fatalf("tracker: %v", err)
	}
	_, ts := newTestServer(t, Config{Pred: pred, Tracker: tracker, Window: -1})
	pred.MarkStale("rm invalidated")

	if resp := getReady(t, ts); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale /readyz = %d, want 200", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Trust  string `json:"trust"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if h.Status != "degraded" || h.Trust != caltrust.Stale.String() {
		t.Fatalf("/healthz = %+v, want status=degraded trust=stale", h)
	}
}

// TestRetryAfterOnOverload pins the back-off hint on 429: a full
// admission queue refuses with Retry-After set.
func TestRetryAfterOnOverload(t *testing.T) {
	clk := newFakeClock()
	s, ts := newTunedServer(t, Config{
		Window: time.Second, // park the first request in the window
	}, tunedWith(func(tun *tuning) {
		tun.maxBatch, tun.maxInFlight, tun.maxQueue = 64, 1, 1
		tun.timeout, tun.clock = 5*time.Second, clk
	}))
	body := `{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":0.3,"msg_words":500}]}`

	// Fill the in-flight slot and the queue slot with parked requests.
	var fillers sync.WaitGroup
	for i := 0; i < 2; i++ {
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for s.adm.InFlight()+s.adm.Waiting() < 2 {
		runtime.Gosched()
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded predict = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != RetryAfterSeconds {
		t.Fatalf("429 Retry-After = %q, want %q", got, RetryAfterSeconds)
	}
	// Close answers the parked filler and refuses the queued one.
	s.Close()
	fillers.Wait()
}
