package cluster

import (
	"sync"
	"time"

	"contention/internal/obs"
)

// BreakerState is the circuit state of one replica's breaker.
type BreakerState int32

const (
	// Closed: traffic flows; outcomes feed the rolling error rate.
	Closed BreakerState = iota
	// Open: the replica failed too often; requests are refused locally
	// until the cooldown lapses.
	Open
	// HalfOpen: the cooldown lapsed; a bounded number of probe requests
	// are let through to test recovery.
	HalfOpen
)

// String names the state for logs and metrics labels.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

const (
	// breakerWindow is the rolling period the error rate is computed
	// over, split into breakerBuckets slots.
	breakerWindow  = 5 * time.Second
	breakerBuckets = 10
	// breakerCooldown is how long Open refuses traffic before allowing
	// half-open probes.
	breakerCooldown = time.Second
	// breakerHalfOpenProbes is both the concurrent probe allowance in
	// HalfOpen and the consecutive successes required to close.
	breakerHalfOpenProbes = 2
)

// breakerTuning parameterizes a Breaker; defaultTuning holds the
// values every command runs with.
type breakerTuning struct {
	// minVolume is the minimum number of outcomes inside the window
	// before the breaker may trip — a single failed request against an
	// idle replica is noise, not an outage.
	minVolume int
	// tripRate is the failure fraction at which Closed trips to Open.
	tripRate float64
}

var mBreakerTrans = obs.NewCounterVec(obs.MetricClusterBreakerTrans,
	"circuit-breaker state transitions, by destination state", "to")

// Breaker is a rolling error-rate circuit breaker: Closed → Open when
// the windowed failure rate crosses tripRate with enough volume, Open →
// HalfOpen after the cooldown, HalfOpen → Closed after consecutive
// successful probes (or straight back to Open on a failed one). It
// reads no clock: Allow and Record take their caller's now.
// Goroutine-safe.
type Breaker struct {
	tun breakerTuning

	mu      sync.Mutex
	state   BreakerState
	ok      [breakerBuckets]int64
	fail    [breakerBuckets]int64
	epoch   int64 // bucket index of the current rotation
	cur     int   // current bucket slot
	opened  time.Time
	probing int // outstanding half-open probes
	probeOK int // consecutive half-open successes
}

// newBreaker builds a breaker in the Closed state.
func newBreaker(tun breakerTuning) *Breaker { return &Breaker{tun: tun} }

// rotateLocked advances the bucket ring to now, zeroing buckets that
// aged out of the window.
func (b *Breaker) rotateLocked(now time.Time) {
	e := now.UnixNano() / int64(breakerWindow/breakerBuckets)
	if b.epoch == 0 {
		b.epoch = e
		return
	}
	steps := e - b.epoch
	if steps <= 0 {
		return
	}
	if steps > breakerBuckets {
		steps = breakerBuckets
	}
	for i := int64(0); i < steps; i++ {
		b.cur = (b.cur + 1) % breakerBuckets
		b.ok[b.cur], b.fail[b.cur] = 0, 0
	}
	b.epoch = e
}

func (b *Breaker) toLocked(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	mBreakerTrans.With(s.String()).Inc()
}

// Allow reports whether a request may be sent to the replica at now. In
// HalfOpen it also reserves one probe slot, so callers must pair every
// true return with exactly one Record.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now.Sub(b.opened) < breakerCooldown {
			return false
		}
		b.toLocked(HalfOpen)
		b.probing, b.probeOK = 0, 0
		fallthrough
	default: // HalfOpen
		if b.probing >= breakerHalfOpenProbes {
			return false
		}
		b.probing++
		return true
	}
}

// Forgive releases an Allow() slot without recording an outcome. It is
// the pairing call for attempts whose failure says nothing about the
// replica — the requesting client canceled or disconnected mid-request
// — so the rolling error window stays a measure of replica health, not
// of client behavior. In HalfOpen it frees the reserved probe slot; in
// Closed and Open it is a no-op.
func (b *Breaker) Forgive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probing > 0 {
		b.probing--
	}
}

// Record feeds back one request outcome, known at now.
func (b *Breaker) Record(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rotateLocked(now)
	if ok {
		b.ok[b.cur]++
	} else {
		b.fail[b.cur]++
	}
	switch b.state {
	case HalfOpen:
		if b.probing > 0 {
			b.probing--
		}
		if !ok {
			b.toLocked(Open)
			b.opened = now
			return
		}
		b.probeOK++
		if b.probeOK >= breakerHalfOpenProbes {
			b.resetLocked()
			b.toLocked(Closed)
		}
	case Closed:
		vol, rate := b.statsLocked()
		if vol >= int64(b.tun.minVolume) && rate >= b.tun.tripRate {
			b.toLocked(Open)
			b.opened = now
		}
	}
}

// resetLocked clears the rolling window (used when closing after a
// successful half-open probe run, so stale failures cannot re-trip).
func (b *Breaker) resetLocked() {
	for i := range b.ok {
		b.ok[i], b.fail[i] = 0, 0
	}
}

func (b *Breaker) statsLocked() (volume int64, failRate float64) {
	var okN, failN int64
	for i := range b.ok {
		okN += b.ok[i]
		failN += b.fail[i]
	}
	volume = okN + failN
	if volume > 0 {
		failRate = float64(failN) / float64(volume)
	}
	return volume, failRate
}

// State reports the current circuit state without side effects (an
// Open breaker whose cooldown has lapsed still reads Open until the
// next Allow performs the transition).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
