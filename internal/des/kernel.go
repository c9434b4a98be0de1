package des

import "fmt"

// Kernel is the discrete-event simulation core: a virtual clock plus a
// heap of pending events. A Kernel is not safe for concurrent use; all
// interaction happens either before Run or from within event callbacks
// and processes, which the kernel serializes.
type Kernel struct {
	now  float64
	seq  uint64
	heap eventHeap
	free []*Event // fired wake events awaiting reuse (see wake)
	live []*Proc  // spawned and not yet finished; Close unwinds them

	running  bool
	stopped  bool
	closed   bool
	maxTime  float64
	hasLimit bool
}

// errClosed is the panic raised by At, Spawn and Run after Close.
const errClosed = "des: kernel closed"

// New returns an empty kernel with the clock at zero.
func New() *Kernel { return &Kernel{} }

// Now reports the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a simulation logic error, not a recoverable
// condition.
func (k *Kernel) At(t float64, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, k.now))
	}
	e := &Event{fn: fn}
	k.schedule(e, t)
	return e
}

// After schedules fn to run d seconds from now.
func (k *Kernel) After(d float64, fn func()) *Event {
	return k.At(k.now+checkDelay(d), fn)
}

// Reschedule moves e — pending, fired or canceled — to fire its
// callback d seconds from now. It is Cancel followed by After (one
// sequence number, the same order) on the record the owner already
// holds, so a resource that re-times one completion allocates nothing.
func (k *Kernel) Reschedule(e *Event, d float64) {
	k.heap.remove(e.index)
	k.schedule(e, k.now+checkDelay(d))
}

// wake schedules p to be resumed d seconds from now: After without the
// closure, consuming a sequence number exactly as After does. Wake
// events are never handed to a caller, so nothing can hold one once it
// fires and Run recycles them through k.free; events returned by At and
// After may be retained (and canceled) by their owner and are never
// reused.
func (k *Kernel) wake(p *Proc, d float64) {
	var e *Event
	if n := len(k.free); n > 0 {
		e, k.free = k.free[n-1], k.free[:n-1]
	} else {
		e = new(Event)
	}
	e.proc = p
	k.schedule(e, k.now+checkDelay(d))
}

// schedule queues e at time t with the next sequence number.
func (k *Kernel) schedule(e *Event, t float64) {
	if k.closed {
		panic(errClosed)
	}
	k.seq++
	e.at, e.seq, e.canceled = t, k.seq, false
	k.heap.push(e)
}

func checkDelay(d float64) float64 {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return d
}

// Cancel removes a pending event. Canceling an event that already fired
// or was already canceled is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e != nil {
		e.canceled = true
		k.heap.remove(e.index) // no-op once fired or canceled (index -1)
	}
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the heap drains, Stop is
// called, or the optional time limit set by RunUntil is reached. A
// panic in a process body surfaces here, on the caller's goroutine,
// prefixed with the process name.
func (k *Kernel) Run() {
	if k.closed {
		panic(errClosed)
	}
	if k.running {
		panic("des: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for k.heap.len() > 0 && !k.stopped {
		e := k.heap.pop()
		if k.hasLimit && e.at > k.maxTime {
			// Push back so a later RunUntil with a larger horizon
			// still sees the event.
			k.heap.push(e)
			k.now = k.maxTime
			return
		}
		k.now = e.at
		if p := e.proc; p != nil {
			e.proc = nil
			k.free = append(k.free, e)
			p.resume()
		} else {
			e.fn()
		}
	}
}

// RunUntil executes events with timestamps ≤ t, then leaves the clock at
// min(t, time of last event). Remaining events stay queued.
func (k *Kernel) RunUntil(t float64) {
	k.maxTime, k.hasLimit = t, true
	defer func() { k.hasLimit = false }()
	k.Run()
}

// Close ends the simulation: every process still parked is unwound (its
// Park panics with a private sentinel that Spawn's wrapper recovers, so
// the body's deferred calls run), and the event heap is dropped. After
// Close, At, Spawn and Run panic with errClosed. Close is
// idempotent and must not be called from simulation context.
func (k *Kernel) Close() {
	if k.running {
		panic("des: Close called from simulation context")
	}
	for len(k.live) > 0 {
		if p := k.live[len(k.live)-1]; p.stop != nil {
			p.stop() // the parked Park fails; run's deferred retire drops p
		} else {
			p.retire() // never started
		}
	}
	k.closed = true
	k.heap, k.free, k.live = eventHeap{}, nil, nil
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.heap.len() }

// Procs reports the number of live processes (spawned and not finished).
func (k *Kernel) Procs() int { return len(k.live) }
