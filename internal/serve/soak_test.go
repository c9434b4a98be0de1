package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/obs"
	"contention/internal/runner"
)

// TestSoakConcurrentTrafficWithFaults drives the handler stack with
// concurrent mixed traffic while injecting wall-clock faults — seeded
// random flush stalls (a GC pause or scheduler hiccup in the batcher)
// and monitor sample loss on the residual feed — and mid-run drift that
// flips the tracker stale. It asserts the service stays live (every
// request gets an answer from the documented status set, no deadlock),
// that the batch queue depth stays within the admission bound, and —
// run under `go test -race` in the serve gate — that the handler,
// batcher, admission, and tracker paths are data-race-free.
func TestSoakConcurrentTrafficWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })

	const (
		workers     = 16
		perWorker   = 150
		maxInFlight = 32
		maxQueue    = 64
	)
	pred := newTestPredictor(t)
	tracker, err := caltrust.NewTracker(pred, nil)
	if err != nil {
		t.Fatalf("tracker: %v", err)
	}
	s, err := newServer(Config{
		Pred:    pred,
		Tracker: tracker,
		Pool:    runner.New(0),
		Window:  300 * time.Microsecond,
	}, tunedWith(func(tun *tuning) {
		tun.maxBatch, tun.maxInFlight, tun.maxQueue = 32, maxInFlight, maxQueue
		tun.timeout = 250 * time.Millisecond
	}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	// Fault: seeded random stalls at flush time, exercising the window
	// under latency spikes (requests keep arriving while a flush sleeps).
	var stallMu sync.Mutex
	stallRng := rand.New(rand.NewSource(99))
	var stalls atomic.Int64
	s.flushStall = func() {
		stallMu.Lock()
		hit := stallRng.Intn(10) == 0
		stallMu.Unlock()
		if hit {
			stalls.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}

	mux := s.Handler()
	rng := rand.New(rand.NewSource(7))
	mixes := newCorpus(rng, 12)
	bodies := make([]string, 512)
	for i := range bodies {
		bodies[i] = randomRequest(rng, mixes).body
	}

	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusBadRequest:          true,
		http.StatusUnprocessableEntity: true,
		http.StatusTooManyRequests:     true,
		http.StatusGatewayTimeout:      true,
	}
	var (
		wg       sync.WaitGroup
		statuses [600]atomic.Int64
		bad      atomic.Int64
		firstBad atomic.Value
	)
	// Prediction traffic: workers hammer the handler directly (no TCP —
	// the subject under race test is our stack, not net/http plumbing).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lrng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < perWorker; i++ {
				body := bodies[lrng.Intn(len(bodies))]
				req := soakRequest(http.MethodPost, "/v1/predict", body)
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				code := rec.Code
				if code >= 0 && code < len(statuses) {
					statuses[code].Add(1)
				}
				if !allowed[code] {
					bad.Add(1)
					firstBad.CompareAndSwap(nil, fmt.Sprintf("status %d body %s resp %s", code, body, rec.Body.String()))
				}
			}
		}(w)
	}
	// Residual feed with sample loss: a monitor streams predicted vs
	// observed costs, dropping ~30% of samples, and shifts mid-run so
	// drift detection flips the tracker stale while traffic is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lrng := rand.New(rand.NewSource(4242))
		for i := 0; i < 400; i++ {
			if lrng.Intn(10) < 3 {
				continue // monitor sample lost
			}
			observed := 1.0 + lrng.Float64()*0.02 // baseline residuals
			if i > 200 {
				observed = 3.0 + lrng.Float64()*0.1 // platform drifted
			}
			body := fmt.Sprintf(`{"predicted":1.0,"observed":%v}`, observed)
			req := soakRequest(http.MethodPost, "/v1/observe", body)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				bad.Add(1)
				firstBad.CompareAndSwap(nil, fmt.Sprintf("observe status %d resp %s", rec.Code, rec.Body.String()))
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	// Health probes race the state transitions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			req := soakRequest(http.MethodGet, "/healthz", "")
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("soak deadlocked: traffic did not drain within 2 minutes")
	}

	if n := bad.Load(); n > 0 {
		t.Fatalf("%d responses outside the documented status set; first: %v", n, firstBad.Load())
	}
	total := int64(0)
	for code := range statuses {
		if n := statuses[code].Load(); n > 0 {
			total += n
			t.Logf("status %d: %d", code, n)
		}
	}
	if want := int64(workers * perWorker); total != want {
		t.Fatalf("answered %d of %d requests", total, want)
	}
	if statuses[http.StatusOK].Load() == 0 {
		t.Fatal("no request succeeded under fault load")
	}
	if tracker.State() == caltrust.Fresh {
		t.Fatal("drift shift never flipped the tracker despite sample loss")
	}
	t.Logf("flush stalls injected: %d; tracker: %v (%s)", stalls.Load(), tracker.State(), tracker.Reason())

	snap := obs.Default().Snapshot()
	if depth := snap.Gauge(obs.MetricServeQueueDepthMax); depth > maxInFlight {
		t.Fatalf("batcher queue depth peaked at %v, above the %d admission bound", depth, maxInFlight)
	}
	if s.adm.InFlight() != 0 || s.adm.Waiting() != 0 {
		t.Fatalf("admission leaked: in-flight %d waiting %d", s.adm.InFlight(), s.adm.Waiting())
	}
}

// TestSoakCloseUnderLoad closes the server while requests are in
// flight: in-flight requests must still be answered (or rejected with a
// documented status), and the Close call itself must not deadlock.
func TestSoakCloseUnderLoad(t *testing.T) {
	pred := newTestPredictor(t)
	s, err := newServer(Config{Pred: pred, Window: 500 * time.Microsecond},
		tunedWith(func(tun *tuning) { tun.timeout = time.Second }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mux := s.Handler()
	rng := rand.New(rand.NewSource(3))
	mixes := newCorpus(rng, 4)
	body := randomRequest(rng, mixes).body

	var wg sync.WaitGroup
	var bad atomic.Int64
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				req := soakRequest(http.MethodPost, "/v1/predict", body)
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK, http.StatusServiceUnavailable,
					http.StatusTooManyRequests, http.StatusGatewayTimeout:
				default:
					bad.Add(1)
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked under load")
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d responses outside {200, 503, 429, 504} during shutdown", n)
	}
	// After Close, the typed path reports ErrClosed.
	q := query{kind: "comp", dcomp: 1, cs: []core.Contender{{CommFraction: 0.2, MsgWords: 10}}}
	if _, err := s.Predict(t.Context(), q); err == nil {
		t.Fatal("Predict after Close succeeded")
	}
}

// soakRequest builds an in-memory request for direct mux dispatch.
func soakRequest(method, target, body string) *http.Request {
	if body == "" {
		return httptest.NewRequest(method, target, nil)
	}
	return httptest.NewRequest(method, target, strings.NewReader(body))
}
