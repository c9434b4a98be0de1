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
// still parks, so same-time events interleave fairly.
func (p *Proc) Delay(d float64) {
	p.k.wake(p, d)
	p.Park()
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

// waitQueue is a FIFO of parked processes used by the synchronization
// primitives and resources.
type waitQueue struct{ fifo[*Proc] }

// wakeOne resumes the oldest waiter; it reports whether there was one.
func (q *waitQueue) wakeOne() bool {
	p, ok := q.pop()
	if ok {
		p.Resume()
	}
	return ok
}
