// Package rm is the admission layer of the serving path: it bounds how
// many prediction requests run at once and how many may wait, and
// rejects the rest with a typed error.
package rm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQueueFull is returned when the bounded admission queue is at
// capacity — explicit rejection instead of unbounded parking.
var ErrQueueFull = errors.New("rm: admission queue full")

// ErrSubmitTimeout is returned when a queued request is not admitted
// before its context ends or its deadline passes.
var ErrSubmitTimeout = errors.New("rm: submit timed out in admission queue")

// Admission is the admission controller for the online serving path: a
// bounded number of requests run concurrently, a bounded number may
// wait, and everything beyond that is rejected immediately with
// ErrQueueFull, or with ErrSubmitTimeout when a waiter's context or
// deadline ends first. It reads no clock: a waiter's deadline is a
// channel its caller's timer delivers on.
//
// Admission is goroutine-safe. The zero value is not usable; build one
// with NewAdmission.
type Admission struct {
	slots chan struct{} // capacity = max concurrent holders

	mu         sync.Mutex
	waiting    int
	maxWaiting int // config bound; 0 = no waiting allowed beyond slots
}

// NewAdmission returns a controller allowing maxInFlight concurrent
// holders (<= 0 selects 1) and at most maxQueue waiters beyond that
// (<= 0 means no waiting: a request that cannot run immediately is
// rejected with ErrQueueFull).
func NewAdmission(maxInFlight, maxQueue int) *Admission {
	if maxInFlight <= 0 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{slots: make(chan struct{}, maxInFlight), maxWaiting: maxQueue}
}

// Acquire takes an admission slot: at once when one is free, else
// waiting (bounded by the queue limit) until one frees, ctx ends or
// expired delivers (a nil expired: no deadline beyond ctx). It returns
// nil on admission, ErrQueueFull when the wait queue is at capacity,
// and ErrSubmitTimeout when the wait ends first, wrapping ctx.Err() or,
// when expired delivered, context.DeadlineExceeded. Every nil return
// must be paired with exactly one Release.
func (a *Admission) Acquire(ctx context.Context, expired <-chan struct{}) error {
	if a.TryAcquire() {
		return nil
	}

	a.mu.Lock()
	if a.waiting >= a.maxWaiting {
		a.mu.Unlock()
		return fmt.Errorf("%w (depth %d)", ErrQueueFull, a.maxWaiting)
	}
	a.waiting++
	a.mu.Unlock()

	defer func() {
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
	}()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrSubmitTimeout, ctx.Err())
	case <-expired:
		return fmt.Errorf("%w: %w", ErrSubmitTimeout, context.DeadlineExceeded)
	}
}

// TryAcquire takes a slot only if one is free right now, reporting
// whether it did. It never waits and never consumes queue capacity —
// the serving fast path uses it to stay off the batcher when a slot is
// instantly available, falling back to the full Acquire pipeline (with
// its bounded waiting and typed rejections) when it is not. A true
// return must be paired with exactly one Release.
func (a *Admission) TryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by a successful Acquire.
func (a *Admission) Release() {
	select {
	case <-a.slots:
	default:
		panic("rm: Admission.Release without matching Acquire")
	}
}

// InFlight reports the number of currently admitted holders.
func (a *Admission) InFlight() int { return len(a.slots) }

// Waiting reports the number of requests parked for a slot.
func (a *Admission) Waiting() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiting
}

// Drain blocks until no request is admitted or waiting, or until ctx
// ends (returning its error). It does not fence new admissions — the
// caller stops routing work in first (readiness flip, listener close),
// then drains. Polling is deliberate: drain runs once per shutdown with
// a deadline measured in seconds, so a millisecond poll is invisible.
func (a *Admission) Drain(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if a.InFlight() == 0 && a.Waiting() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("rm: drain interrupted with %d in flight, %d waiting: %w",
				a.InFlight(), a.Waiting(), ctx.Err())
		case <-tick.C:
		}
	}
}
