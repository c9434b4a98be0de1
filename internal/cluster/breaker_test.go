package cluster

import (
	"testing"
	"time"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(c *fakeClock) *Breaker {
	b := NewBreaker(BreakerConfig{
		Window:         time.Second,
		Buckets:        10,
		MinVolume:      10,
		TripRate:       0.5,
		Cooldown:       time.Second,
		HalfOpenProbes: 2,
	})
	b.now = c.now
	return b
}

func TestBreakerTripsOnlyWithVolume(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	// 9 straight failures: under MinVolume, must stay closed.
	for i := 0; i < 9; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(false)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state %v below MinVolume, want closed", got)
	}
	// The 10th failure reaches volume at 100% failure rate: trip.
	b.Record(false)
	if got := b.State(); got != Open {
		t.Fatalf("state %v after 10 failures, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}
}

func TestBreakerIgnoresLowFailureRate(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 40; i++ {
		b.Record(i%4 != 0) // 25% failures, below the 50% trip rate
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state %v at 25%% failure rate, want closed", got)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 10; i++ {
		b.Record(false)
	}
	if b.State() != Open {
		t.Fatal("breaker did not trip")
	}
	clk.advance(1100 * time.Millisecond)
	// Cooldown lapsed: Allow transitions to half-open and reserves a
	// probe slot, bounded by HalfOpenProbes.
	if !b.Allow() {
		t.Fatal("first half-open probe refused")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v after cooldown Allow, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("second half-open probe refused")
	}
	if b.Allow() {
		t.Fatal("third concurrent probe allowed beyond HalfOpenProbes")
	}
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after %d successful probes, want closed", got, 2)
	}
	// The window was reset on close: old failures cannot re-trip.
	b.Record(false)
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after one post-recovery failure, want closed", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 10; i++ {
		b.Record(false)
	}
	clk.advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Record(false)
	if got := b.State(); got != Open {
		t.Fatalf("state %v after failed probe, want open", got)
	}
	if b.Allow() {
		t.Fatal("reopened breaker allowed a request before a fresh cooldown")
	}
	// It can still recover after another cooldown.
	clk.advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused after second cooldown")
	}
	b.Record(true)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Record(true)
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after recovery, want closed", got)
	}
}

func TestBreakerWindowAgesOutFailures(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 9; i++ {
		b.Record(false)
	}
	// Age the failures out of the rolling window entirely.
	clk.advance(1500 * time.Millisecond)
	if vol, _ := b.Stats(); vol != 0 {
		t.Fatalf("windowed volume %d after aging, want 0", vol)
	}
	// Fresh failures start counting from zero: 9 more must not trip.
	for i := 0; i < 9; i++ {
		b.Record(false)
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
	b := testBreaker(clk)
	// Closed: Allow+Forgive records nothing.
	for i := 0; i < 20; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker refused")
		}
		b.Forgive()
	}
	if vol, _ := b.Stats(); vol != 0 {
		t.Fatalf("windowed volume %d after forgiven attempts, want 0", vol)
	}
	if b.State() != Closed {
		t.Fatalf("state %v after forgiven attempts, want closed", b.State())
	}

	// HalfOpen: forgiving frees the probe slot for the next attempt.
	for i := 0; i < 10; i++ {
		b.Record(false)
	}
	clk.advance(1100 * time.Millisecond)
	if !b.Allow() || !b.Allow() {
		t.Fatal("half-open probes refused")
	}
	if b.Allow() {
		t.Fatal("probe allowed beyond HalfOpenProbes")
	}
	b.Forgive()
	if !b.Allow() {
		t.Fatal("forgiven probe slot was not freed")
	}
	// The two outstanding probes can still close the breaker.
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after recovery through a forgiven probe, want closed", got)
	}
}

func TestBreakerStateIsSideEffectFree(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 10; i++ {
		b.Record(false)
	}
	clk.advance(2 * time.Second)
	// Cooldown has lapsed, but State must keep reading Open until an
	// Allow performs the transition (routing reads State without
	// committing to send).
	if got := b.State(); got != Open {
		t.Fatalf("State = %v, want open until Allow transitions", got)
	}
	if !b.Allow() {
		t.Fatal("Allow refused after cooldown")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("State = %v after Allow, want half-open", got)
	}
	b.Record(true)
}

// Stats reports the windowed outcome volume and failure rate.
func (b *Breaker) Stats() (volume int64, failRate float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rotateLocked(b.now())
	return b.statsLocked()
}
