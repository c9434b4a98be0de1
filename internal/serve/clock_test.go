package serve

import (
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
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

// armed blocks until n timers are armed and returns their deadlines,
// earliest first.
func (c *fakeClock) armed(n int) []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.cond.Wait()
	}
	var at []time.Time
	for t := range c.timers {
		at = append(at, t.when)
	}
	slices.SortFunc(at, time.Time.Compare)
	return at
}

// tunedWith is defaultTuning as set changes it.
func tunedWith(set func(*tuning)) tuning {
	tun := defaultTuning()
	set(&tun)
	return tun
}

// newTunedServer is newTestServer with the given tuning.
func newTunedServer(t *testing.T, cfg Config, tun tuning) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Pred == nil {
		cfg.Pred = newTestPredictor(t)
	}
	s, err := newServer(cfg, tun)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}
