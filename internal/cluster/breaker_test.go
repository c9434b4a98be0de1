package cluster

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBreakerTripsOnlyWithVolume(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(defaultTuning().breaker)
	// 9 straight failures: under minVolume, must stay closed.
	for i := 0; i < 9; i++ {
		if !b.Allow(clk.Now()) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(clk.Now(), false)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state %v below minVolume, want closed", got)
	}
	// The 10th failure reaches volume at 100% failure rate: trip.
	b.Record(clk.Now(), false)
	if got := b.State(); got != Open {
		t.Fatalf("state %v after 10 failures, want open", got)
	}
	if b.Allow(clk.Now()) {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}
}

func TestBreakerIgnoresLowFailureRate(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(defaultTuning().breaker)
	for i := 0; i < 40; i++ {
		b.Record(clk.Now(), i%4 != 0) // 25% failures, below the 50% trip rate
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state %v at 25%% failure rate, want closed", got)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(defaultTuning().breaker)
	for i := 0; i < 10; i++ {
		b.Record(clk.Now(), false)
	}
	if b.State() != Open {
		t.Fatal("breaker did not trip")
	}
	clk.advance(1100 * time.Millisecond)
	// The cooldown lapsed: Allow transitions to half-open and reserves a
	// probe slot, bounded by breakerHalfOpenProbes.
	if !b.Allow(clk.Now()) {
		t.Fatal("first half-open probe refused")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v after cooldown Allow, want half-open", b.State())
	}
	if !b.Allow(clk.Now()) {
		t.Fatal("second half-open probe refused")
	}
	if b.Allow(clk.Now()) {
		t.Fatal("third concurrent probe allowed beyond breakerHalfOpenProbes")
	}
	b.Record(clk.Now(), true)
	b.Record(clk.Now(), true)
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after %d successful probes, want closed", got, 2)
	}
	// The window was reset on close: old failures cannot re-trip.
	b.Record(clk.Now(), false)
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after one post-recovery failure, want closed", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(defaultTuning().breaker)
	for i := 0; i < 10; i++ {
		b.Record(clk.Now(), false)
	}
	clk.advance(1100 * time.Millisecond)
	if !b.Allow(clk.Now()) {
		t.Fatal("probe refused")
	}
	b.Record(clk.Now(), false)
	if got := b.State(); got != Open {
		t.Fatalf("state %v after failed probe, want open", got)
	}
	if b.Allow(clk.Now()) {
		t.Fatal("reopened breaker allowed a request before a fresh cooldown")
	}
	// It can still recover after another cooldown.
	clk.advance(1100 * time.Millisecond)
	if !b.Allow(clk.Now()) {
		t.Fatal("probe refused after second cooldown")
	}
	b.Record(clk.Now(), true)
	if !b.Allow(clk.Now()) {
		t.Fatal("second probe refused")
	}
	b.Record(clk.Now(), true)
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after recovery, want closed", got)
	}
}

func TestBreakerWindowAgesOutFailures(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(defaultTuning().breaker)
	for i := 0; i < 9; i++ {
		b.Record(clk.Now(), false)
	}
	// Age the failures out of the 5 s rolling window entirely.
	clk.advance(5500 * time.Millisecond)
	if vol, _ := b.Stats(clk.Now()); vol != 0 {
		t.Fatalf("windowed volume %d after aging, want 0", vol)
	}
	// Fresh failures start counting from zero: 9 more must not trip.
	for i := 0; i < 9; i++ {
		b.Record(clk.Now(), false)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state %v, want closed — aged-out failures were counted", got)
	}
}

// TestBreakerForgive: a forgiven attempt leaves no trace — the rolling
// window does not move, and in HalfOpen the reserved probe slot is
// freed so a canceled probe cannot wedge recovery.
func TestBreakerForgive(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(defaultTuning().breaker)
	// Closed: Allow+Forgive records nothing.
	for i := 0; i < 20; i++ {
		if !b.Allow(clk.Now()) {
			t.Fatal("closed breaker refused")
		}
		b.Forgive()
	}
	if vol, _ := b.Stats(clk.Now()); vol != 0 {
		t.Fatalf("windowed volume %d after forgiven attempts, want 0", vol)
	}
	if b.State() != Closed {
		t.Fatalf("state %v after forgiven attempts, want closed", b.State())
	}

	// HalfOpen: forgiving frees the probe slot for the next attempt.
	for i := 0; i < 10; i++ {
		b.Record(clk.Now(), false)
	}
	clk.advance(1100 * time.Millisecond)
	if !b.Allow(clk.Now()) || !b.Allow(clk.Now()) {
		t.Fatal("half-open probes refused")
	}
	if b.Allow(clk.Now()) {
		t.Fatal("probe allowed beyond breakerHalfOpenProbes")
	}
	b.Forgive()
	if !b.Allow(clk.Now()) {
		t.Fatal("forgiven probe slot was not freed")
	}
	// The two outstanding probes can still close the breaker.
	b.Record(clk.Now(), true)
	b.Record(clk.Now(), true)
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after recovery through a forgiven probe, want closed", got)
	}
}

func TestBreakerStateIsSideEffectFree(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(defaultTuning().breaker)
	for i := 0; i < 10; i++ {
		b.Record(clk.Now(), false)
	}
	clk.advance(2 * time.Second)
	// The cooldown has lapsed, but State must keep reading Open until an
	// Allow performs the transition (routing reads State without
	// committing to send).
	if got := b.State(); got != Open {
		t.Fatalf("State = %v, want open until Allow transitions", got)
	}
	if !b.Allow(clk.Now()) {
		t.Fatal("Allow refused after cooldown")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("State = %v after Allow, want half-open", got)
	}
	b.Record(clk.Now(), true)
}

// Stats reports the windowed outcome volume and failure rate at now.
func (b *Breaker) Stats(now time.Time) (volume int64, failRate float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rotateLocked(now)
	return b.statsLocked()
}

// TestBreakerSteersAroundFailingMember: of three remote members, one
// passes every health probe but answers every predict with a 500. Its
// breaker is the only thing that takes it out of the rotation, since
// the least-loaded pick favours a member that fails fast. Under
// concurrent load every predict succeeds (the retry rule fails over to
// a healthy member) and the failing member sees no more predicts than
// trip its breaker: minVolume failures plus those already in flight.
// The clock stands still, so the breaker never cools down and no health
// probe runs.
func TestBreakerSteersAroundFailingMember(t *testing.T) {
	const workers, each = 8, 500
	rf := newRemoteFleet(t, 3)
	c, front := newRemoteCluster(t, func(cfg *testConfig) { cfg.clock = newFakeClock() })
	for _, r := range rf.reps {
		if _, err := c.AddRemote(r.Addr(), 1); err != nil {
			t.Fatal(err)
		}
	}
	sick := rf.reps[1]
	sick.fail.Store(true)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := client.Post(front.URL+"/v1/predict", "application/json", strings.NewReader(predictBody(i)))
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Errorf("%d of %d predicts failed, want none", n, workers*each)
	}
	bound := int64(defaultTuning().breaker.minVolume + workers)
	if n := sick.hits.Load(); n > bound {
		t.Errorf("the failing member served %d of %d predicts, want at most %d", n, workers*each, bound)
	}
	t.Logf("failing member served %d of %d predicts", sick.hits.Load(), workers*each)
}
