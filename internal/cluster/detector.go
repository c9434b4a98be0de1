package cluster

import (
	"sync"
	"time"
)

// Heartbeat-based failure detection for remote members, in the
// phi-accrual family (Hayashibara et al.): instead of a fixed "dead
// after T silent" timeout, the detector learns the member's heartbeat
// inter-arrival rhythm as an EWMA and expresses suspicion as elapsed
// silence in units of that rhythm. A member on a slow or jittery link
// earns a proportionally longer leash; a member that normally answers
// like clockwork is suspected quickly. Suspicion only moves members in
// and out of the routing set — request-level failures keep feeding the
// per-member circuit breaker, so the two mechanisms stay complementary
// instead of duplicated: the breaker reacts to errors, the detector to
// silence.

// suspicionAlpha is the EWMA smoothing factor for heartbeat
// inter-arrival gaps: ~5 beats of memory, enough to adapt to a link's
// real rhythm without one slow beat poisoning the estimate.
const suspicionAlpha = 0.2

// suspicion is one remote member's failure-detector state.
// Goroutine-safe.
type suspicion struct {
	mu        sync.Mutex
	threshold float64 // suspicion level at which the member is suspect
	floor     float64 // lower bound on the learned mean, seconds
	mean      float64 // EWMA heartbeat inter-arrival, seconds
	last      time.Time
}

// newSuspicion builds a detector expecting heartbeats every `expected`,
// suspecting after `threshold` expected-intervals of silence. The
// learned mean is floored at half the expected interval so a burst of
// fast beats cannot make the detector hair-triggered.
func newSuspicion(expected time.Duration, threshold float64, now time.Time) *suspicion {
	return &suspicion{
		threshold: threshold,
		floor:     expected.Seconds() / 2,
		mean:      expected.Seconds(),
		last:      now,
	}
}

// beat records one successful heartbeat at now.
func (s *suspicion) beat(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !now.After(s.last) {
		return
	}
	gap := now.Sub(s.last).Seconds()
	s.last = now
	s.mean = (1-suspicionAlpha)*s.mean + suspicionAlpha*gap
	if s.mean < s.floor {
		s.mean = s.floor
	}
}

// level reports the current suspicion: elapsed silence divided by the
// learned mean inter-arrival. ~1 is a member right on schedule; each
// additional unit is one more expected heartbeat missed.
func (s *suspicion) level(now time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	elapsed := now.Sub(s.last).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return elapsed / s.mean
}

// suspect reports whether the silence has crossed the threshold.
func (s *suspicion) suspect(now time.Time) bool {
	return s.level(now) > s.threshold
}
