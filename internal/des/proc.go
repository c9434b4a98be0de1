//go:build go1.23

package des

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: an iter.Pull coroutine whose execution
// the kernel interleaves with events deterministically. At most one
// simulation context (Run, a callback or a process) executes at a time;
// a process gives up control by parking (Delay, mailbox receive,
// resource acquisition) and carries on when its wake event fires.
type Proc struct {
	k    *Kernel
	name string
	body func(p *Proc)

	// The coroutine, created on first resume: next switches into the
	// body until it yields or returns, stop makes the pending yield
	// fail, and yield (valid inside the body) switches back to whoever
	// called next — Run or the process that was dispatching.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	slot     int // index in k.live
	dead     bool
	ancestor bool // blocked in dispatch's resume of another process
}

// closeSignal is the panic value Park raises once the kernel is closing.
type closeSignal struct{}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel the process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now is shorthand for p.Kernel().Now().
func (p *Proc) Now() float64 { return p.k.now }

// Spawn creates a process executing body. The body starts at the current
// virtual time, after already-queued events at that time.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, body: body, slot: len(k.live)}
	k.wake(p, 0) // panics on a closed kernel, before p joins the live set
	k.live = append(k.live, p)
	return p
}

// run is the coroutine: the body, then bookkeeping. A closeSignal ends
// the process quietly; any other panic is re-raised with the process
// name and, through iter.Pull, reaches the dispatch that resumed it.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.retire()
		if r := recover(); r != nil {
			if _, closing := r.(closeSignal); !closing {
				panic(fmt.Sprintf("des: process %q panicked: %v", p.name, r))
			}
		}
	}()
	p.body(p)
}

// retire removes a finished process from the kernel's live set.
func (p *Proc) retire() {
	p.dead = true
	live := p.k.live
	last := live[len(live)-1]
	live[p.slot], last.slot = last, p.slot
	live[len(live)-1] = nil
	p.k.live = live[:len(live)-1]
}

// Park suspends the process until another simulation context calls
// Resume. It is the low-level hook for resource implementations in
// other packages (CPU hosts, links); application code should prefer the
// higher-level primitives. Must only be called from the process's own
// body.
//
// A parked process does not sit idle: it runs the kernel's event loop on
// its own goroutine until the loop reaches its wake — often the very
// next event, and then Park returns without a single coroutine switch —
// and yields to its resumer only when the loop tells it to (see
// Kernel.dispatch). After a yield, being switched into again means some
// other dispatcher consumed the wake.
func (p *Proc) Park() {
	if !p.k.dispatch(p) && !p.yield(struct{}{}) {
		panic(closeSignal{})
	}
}

// resume switches into a parked (or not yet started) process and
// returns when it yields or finishes. Only dispatch calls it, for a
// wake event.
func (p *Proc) resume() {
	if p.dead {
		panic(fmt.Sprintf("des: resume of dead process %q", p.name))
	}
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.run)
	}
	p.k.resumes++
	p.next()
}

// Resume schedules the process to be woken at the current virtual time.
// Safe to call from any simulation context (event or another process):
// it only queues the wake event and never switches, so the caller keeps
// running and the wake takes its turn in (time, sequence) order like
// any other event.
func (p *Proc) Resume() { p.k.wake(p, 0) }

// Delay advances the process by d seconds of virtual time. A zero delay
// still lets every event already queued for this instant go first, so
// same-time events interleave fairly.
func (p *Proc) Delay(d float64) {
	if p.RunAhead(d, nil) {
		return
	}
	p.k.wake(p, d)
	p.Park()
}

// RunAhead is the fast path of a wait. It reports whether a wake queued
// now for d seconds ahead would by construction be the very next event
// the loop pops, and if so takes that event's turn in place: its
// sequence number is consumed, the clock moves to its instant, and the
// process carries on without the heap, the loop or a park having been
// involved. When it reports false nothing has changed and the caller
// queues and parks as it always did.
//
// The wake is provably next when nobody may be asked to stop first (no
// Stop, no closing kernel, no held failure), its instant lies within the
// RunUntil horizon, and every queued event is strictly later. A tie goes
// the slow way: the queued event holds the smaller sequence number and
// fires first. The number is consumed although no event will carry it:
// everything scheduled afterwards is then numbered exactly as it would
// have been, so the two ways differ in nothing a later comparison — or
// a test reading the numbers — can see.
//
// own, when non-nil, is a queued event the caller is about to re-time
// to that same wake (a resource's completion record): its present
// position says nothing and it is the one event not looked at. Must only
// be called from the process's own body.
func (p *Proc) RunAhead(d float64, own *Event) bool {
	k := p.k
	t := k.now + checkDelay(d)
	if k.stopped || k.closing || k.failure != nil || k.queueOnly || k.hasLimit && t > k.maxTime {
		return false
	}
	if at, ok := k.heap.earliestBut(own); ok && !(at > t) {
		return false
	}
	k.seq++
	k.now = t
	return true
}

// fifo is a slice-backed queue that keeps its backing array: pop
// advances a head index, and once at least half the slice is dead the
// live tail is copied down (when the queue drains that is a plain
// reset), so steady-state traffic allocates nothing and a queue that
// never drains stays bounded by twice its length.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	var zero T
	v, q.items[q.head] = q.items[q.head], zero
	q.head++
	if 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v, true
}

// waiter is one entry of a wait queue: a parked process, or the Action
// standing in for one (Semaphore.AcquireAsync).
type waiter struct {
	proc *Proc
	act  Action
}

// waitQueue is the FIFO of waiters behind the synchronization
// primitives.
type waitQueue struct{ fifo[waiter] }

// wakeOne wakes the oldest waiter — a zero-delay wake for a process, a
// zero-delay Call for an Action: one sequence number either way — and
// reports whether there was one.
func (q *waitQueue) wakeOne(k *Kernel) bool {
	w, ok := q.pop()
	switch {
	case !ok:
	case w.act != nil:
		k.Call(0, w.act)
	default:
		w.proc.Resume()
	}
	return ok
}
