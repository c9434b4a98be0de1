package obs

import "time"

// Clock is the one source of time for the serving stack: serve, the
// cluster router and the tracer read the current time from it and arm
// its timers for every wait they bound. Production runs on WallClock;
// a test, or later the DES, supplies a clock it advances itself, so the
// same code runs on virtual time. Code that only reads the time, such
// as the breaker and the SLO tracker, takes it from its caller instead.
type Clock interface {
	Now() time.Time
	// AfterFunc arms a timer that calls f once d has passed.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a Clock's resettable timer; the wall clock's is *time.Timer.
type Timer interface {
	// Reset re-arms the timer to fire d from now, reporting whether it
	// was armed.
	Reset(d time.Duration) bool
	// Stop disarms the timer, reporting whether that kept it from
	// firing.
	Stop() bool
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// WallClock returns the wall clock.
func WallClock() Clock { return wallClock{} }
