package cluster

import (
	"sync"
	"time"

	"contention/internal/obs"
)

// fakeClock is a virtual clock: time stands still until advance moves
// it, and advance runs each timer that comes due, in deadline order, on
// the advancing goroutine.
type fakeClock struct {
	mu     sync.Mutex
	cond   sync.Cond // broadcast at every arm, stop and firing
	now    time.Time
	timers map[*fakeTimer]struct{} // the armed ones
}

type fakeTimer struct {
	c    *fakeClock
	f    func()
	when time.Time
	arms int // how often the timer has been armed
}

func newFakeClock() *fakeClock {
	c := &fakeClock{now: time.Unix(1_000_000, 0), timers: map[*fakeTimer]struct{}{}}
	c.cond.L = &c.mu
	return c
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) obs.Timer {
	t := &fakeTimer{c: c, f: f}
	t.Reset(d)
	return t
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	_, armed := t.c.timers[t]
	t.when = t.c.now.Add(d)
	t.arms++
	t.c.timers[t] = struct{}{}
	t.c.cond.Broadcast()
	return armed
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	_, armed := t.c.timers[t]
	delete(t.c.timers, t)
	t.c.cond.Broadcast()
	return armed
}

// advance moves the clock d forward, firing every timer due by then at
// its own instant.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	end := c.now.Add(d)
	for {
		var next *fakeTimer
		for t := range c.timers {
			if !t.when.After(end) && (next == nil || t.when.Before(next.when)) {
				next = t
			}
		}
		if next == nil {
			break
		}
		delete(c.timers, next)
		if next.when.After(c.now) {
			c.now = next.when
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		next.f()
		c.mu.Lock()
	}
	c.now = end
	c.mu.Unlock()
}

// waitArmed blocks until an armed timer satisfies cond and returns
// when it is due. cond runs with the clock locked (it reads c.now, not
// Now) and is checked again at every arm, stop and firing: a change it
// reads elsewhere must be followed by one of those. A timer's arms tell
// a reused timer, such as the health loop's, re-armed round after
// round, from the fresh one of each probe.
func (c *fakeClock) waitArmed(cond func(t *fakeTimer) bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for t := range c.timers {
			if cond(t) {
				return t.when
			}
		}
		c.cond.Wait()
	}
}
