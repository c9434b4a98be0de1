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
	free []*Event // fired kernel-owned events awaiting reuse (see recycled)
	live []*Proc  // spawned and not yet finished; Close unwinds them

	running  bool
	stopped  bool
	closing  bool // Close is unwinding the processes: nobody dispatches
	closed   bool
	maxTime  float64
	hasLimit bool

	failure    any // a panic recovered by dispatch, held until Run re-raises it
	resumes    uint64
	dispatched uint64
	queueOnly  bool // set by tests only (export_test.go): RunAhead always declines
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

// Action is the receiver of a timed call: the state a closure would
// have captured, with the callback as its method. A pointer stored in
// an Action allocates nothing, so a resource that keeps (or recycles)
// its own receivers schedules callbacks for free.
type Action interface{ Fire() }

// Call schedules a.Fire() to run d seconds from now: After without the
// closure and without the handle, consuming a sequence number exactly
// as After does. The event cannot be canceled.
func (k *Kernel) Call(d float64, a Action) {
	if a == nil {
		panic("des: Call with a nil Action")
	}
	e := k.recycled()
	e.act = a
	k.schedule(e, k.now+checkDelay(d))
}

// wake schedules p to be resumed d seconds from now, like Call.
func (k *Kernel) wake(p *Proc, d float64) {
	e := k.recycled()
	e.proc = p
	k.schedule(e, k.now+checkDelay(d))
}

// recycled returns a blank kernel-owned event record. The events behind
// Call and wake are never handed to a caller, so nothing can hold one
// once it fires and dispatch returns them to k.free; events returned by
// At and After may be retained (and canceled) by their owner and are
// never reused.
func (k *Kernel) recycled() *Event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free = k.free[:n-1]
		return e
	}
	return new(Event)
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

// Stop makes the Run in progress return once the current event
// completes — for a process, once it parks — without firing another,
// however deeply the dispatch is nested. The next Run starts afresh.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the heap drains, Stop is
// called, or the optional time limit set by RunUntil is reached. A
// panic in an event callback or a process body (the latter prefixed
// with the process name) surfaces here, on the caller's goroutine,
// whichever simulation context was dispatching when it was raised; the
// kernel stays usable and a later Run carries on with the next event.
func (k *Kernel) Run() {
	if k.closed {
		panic(errClosed)
	}
	if k.running {
		panic("des: Run called reentrantly")
	}
	k.running, k.stopped = true, false
	defer func() { k.running = false }()
	k.dispatch(nil)
	if r := k.failure; r != nil {
		k.failure = nil
		panic(r)
	}
}

// dispatch is the event loop, run by whoever has nothing else to do:
// Run (self == nil) on its caller's goroutine, and every process that
// parks (Proc.Park), on its own. It fires events in (time, sequence)
// order — callbacks in place, another process's wake by switching
// straight into it — and reports true when the event it reached is
// self's own wake, which costs no switch at all. It reports false when
// the dispatcher must instead hand control back to whoever resumed it
// (Run returns, a process yields): the heap drained, Stop, the RunUntil
// horizon, a closing kernel, a held failure, or a wake that belongs to
// an ancestor — a process blocked in the p.resume() below, which only
// the yields of its descendants can reach. Each level of the nest sees
// the same condition in turn, so control unwinds to the owner of the
// next event, or to Run.
//
// Nothing here chooses among events. Resume, Spawn, Delay and Call only
// queue, one sequence number each, and the loop switches only for the
// event at the top of the heap; so which event fires next — and with it
// every simulated result — cannot depend on who is dispatching, which
// decides only whose stack the event runs on.
//
// A panic out of a callback or a resumed process is recovered here and
// held in k.failure: the dispatcher is a bystander and stays parked and
// live, the nest unwinds by ordinary yields, and Run re-raises the value
// on its caller's goroutine.
func (k *Kernel) dispatch(self *Proc) (woken bool) {
	defer func() {
		if r := recover(); r != nil {
			k.failure = r
			if self != nil {
				self.ancestor = false
			}
		}
	}()
	for k.heap.len() > 0 && !k.stopped && !k.closing && k.failure == nil {
		e := k.heap.items[0]
		if k.hasLimit && e.at > k.maxTime {
			// The event stays queued for a later Run with a larger horizon.
			k.now = k.maxTime
			return false
		}
		if e.proc != nil && e.proc.ancestor {
			return false
		}
		k.heap.pop()
		k.dispatched++
		k.now = e.at
		if e.fn != nil {
			e.fn()
			continue
		}
		p, a := e.proc, e.act
		e.proc, e.act = nil, nil
		k.free = append(k.free, e)
		switch {
		case a != nil:
			a.Fire()
		case p == self:
			return true
		case self == nil:
			p.resume()
		default:
			self.ancestor = true
			p.resume()
			self.ancestor = false
		}
	}
	return false
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
	k.closing = true // a body's deferred Delay or Acquire must fail, not dispatch
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

// Resumes reports how many times a process has been switched into since
// New: its first start and every wake that needed a coroutine switch. A
// process that finds its own wake next when it parks is not counted.
func (k *Kernel) Resumes() uint64 { return k.resumes }

// Dispatched reports how many events the loop has popped off the heap
// and fired since New. A wait that ran ahead (Proc.RunAhead) took its
// turn without one and is not counted.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }
