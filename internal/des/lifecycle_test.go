package des

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// mustPanic runs f and returns the message it panicked with.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

func TestCloseUnwindsParkedProcesses(t *testing.T) {
	k := New()
	mb := NewMailbox[int](k, "never")
	sem := NewSemaphore(k, 0)
	var unwound []string
	k.Spawn("server", func(p *Proc) {
		defer func() { unwound = append(unwound, "server") }()
		for {
			mb.Recv(p)
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = append(unwound, "waiter") }()
		sem.Acquire(p)
		t.Error("waiter ran past a semaphore nobody released")
	})
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, "sleeper") }()
		p.Delay(1e9)
	})
	k.Spawn("done", func(p *Proc) { p.Delay(1) })
	k.RunUntil(10)
	k.Spawn("unstarted", func(p *Proc) { t.Error("a process spawned after the last Run ran") })
	if got := k.Procs(); got != 4 {
		t.Fatalf("Procs before Close = %d, want 4", got)
	}
	before := runtime.NumGoroutine()

	k.Close()
	if len(unwound) != 3 {
		t.Fatalf("Close ran the deferred calls of %v, want all of server, waiter and sleeper", unwound)
	}
	if k.Procs() != 0 || k.Pending() != 0 {
		t.Fatalf("after Close: Procs = %d, Pending = %d, want 0 and 0", k.Procs(), k.Pending())
	}
	if after := runtime.NumGoroutine(); after != before-3 {
		t.Fatalf("goroutines %d -> %d across Close, want the 3 parked coroutines gone", before, after)
	}
	k.Close() // idempotent
	if len(unwound) != 3 {
		t.Fatalf("second Close unwound again: %v", unwound)
	}
}

func TestClosedKernelRejectsWork(t *testing.T) {
	k := New()
	k.Close()
	for what, f := range map[string]func(){
		"At":    func() { k.At(1, func() {}) },
		"After": func() { k.After(1, func() {}) },
		"Spawn": func() { k.Spawn("p", func(*Proc) {}) },
		"Run":   func() { k.Run() },
	} {
		if msg := mustPanic(t, what+" after Close", f); msg != "des: kernel closed" {
			t.Errorf("%s after Close panicked with %q, want %q", what, msg, "des: kernel closed")
		}
	}
	if k.Procs() != 0 {
		t.Fatalf("a rejected Spawn left Procs = %d", k.Procs())
	}
}

func TestCloseFromSimulationContextPanics(t *testing.T) {
	k := New()
	k.After(1, func() { k.Close() })
	if msg := mustPanic(t, "Close inside an event", k.Run); !strings.Contains(msg, "simulation context") {
		t.Fatalf("panic %q does not name the misuse", msg)
	}
}

// A deferred call that releases a resource during Close may wake other
// processes; the wake-ups are dropped with the heap.
func TestCloseToleratesDeferredWakeups(t *testing.T) {
	k := New()
	sem := NewSemaphore(k, 1)
	for i := 0; i < 3; i++ {
		k.Spawn("holder", func(p *Proc) {
			sem.Acquire(p)
			defer sem.Release()
			p.Delay(1e9)
		})
	}
	k.RunUntil(1)
	k.Close()
	if k.Procs() != 0 {
		t.Fatalf("Procs = %d after Close", k.Procs())
	}
}

func TestProcessPanicSurfacesFromRun(t *testing.T) {
	k := New()
	cleaned := false
	k.Spawn("bystander", func(p *Proc) { p.Delay(5) })
	k.Spawn("faulty", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Delay(1)
		panic("boom")
	})
	msg := mustPanic(t, "Run over a panicking process", k.Run)
	if !strings.Contains(msg, `"faulty"`) || !strings.Contains(msg, "boom") {
		t.Fatalf("panic %q, want the process name and the original value", msg)
	}
	if !cleaned {
		t.Fatal("the faulty body's deferred call did not run")
	}
	if k.Procs() != 1 {
		t.Fatalf("Procs = %d after the panic, want the bystander only", k.Procs())
	}
	k.Run() // the kernel is still usable: the bystander finishes
	if k.Procs() != 0 || k.Now() != 5 {
		t.Fatalf("after resuming: Procs = %d at t = %v, want 0 at 5", k.Procs(), k.Now())
	}
	k.Close()
}

// Cancel removes its event from the heap at once, so the heap never
// holds a canceled event: Pending is the heap length and Run needs no
// canceled re-check. Exercised with cancels of pending, fired, already
// canceled and currently firing events, from inside and outside Run.
func TestHeapNeverHoldsCanceledEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := New()
	var all []*Event
	fired := map[*Event]bool{}
	check := func() {
		t.Helper()
		for _, e := range k.heap.items {
			if e.canceled {
				t.Fatalf("canceled event (t=%v) still queued", e.at)
			}
		}
	}
	var add func()
	add = func() {
		var e *Event
		e = k.After(rng.Float64()*10, func() {
			if e.Canceled() {
				t.Errorf("canceled event fired at %v", k.Now())
			}
			fired[e] = true
			for i := 0; i < 3; i++ {
				k.Cancel(all[rng.Intn(len(all))]) // may be e itself, fired or pending
			}
			if len(all) < 400 {
				add()
				add()
			}
			check()
		})
		all = append(all, e)
	}
	for i := 0; i < 50; i++ {
		add()
	}
	for i := 0; i < 20; i++ {
		k.Cancel(all[rng.Intn(len(all))])
	}
	check()
	k.RunUntil(5) // pushes the first event beyond the horizon back
	check()
	pending := 0
	for _, e := range all {
		if !fired[e] && !e.Canceled() {
			pending++
		}
	}
	if k.Pending() != pending {
		t.Fatalf("Pending = %d, want %d events neither fired nor canceled", k.Pending(), pending)
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after the heap drained", k.Pending())
	}
}

// Reschedule is Cancel followed by After: same order among
// simultaneous events, and it revives fired and canceled events.
func TestRescheduleMatchesCancelThenAfter(t *testing.T) {
	run := func(retime func(k *Kernel, e *Event, d float64, fn func()) *Event) []string {
		k := New()
		var order []string
		note := func(s string) func() { return func() { order = append(order, fmt.Sprintf("%s@%v", s, k.Now())) } }
		tick := note("tick")
		e := k.After(1, tick)
		k.After(3, note("a"))
		e = retime(k, e, 3, tick) // pending: now after a
		k.After(3, note("b"))
		k.Run()                   // a, tick, b
		e = retime(k, e, 2, tick) // fired: fires again at 5
		k.Run()
		k.Cancel(e)
		e = retime(k, e, 1, tick) // canceled: revived at 6
		k.Run()
		if e.Canceled() || e.Time() != 6 {
			order = append(order, fmt.Sprintf("bad state canceled=%v t=%v", e.Canceled(), e.Time()))
		}
		return order
	}
	got := run(func(k *Kernel, e *Event, d float64, _ func()) *Event { k.Reschedule(e, d); return e })
	want := run(func(k *Kernel, e *Event, d float64, fn func()) *Event { k.Cancel(e); return k.After(d, fn) })
	if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 5 {
		t.Fatalf("Reschedule order %v, Cancel+After order %v", got, want)
	}
}

func TestFifoKeepsOrderAndStaysBounded(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	pop := func() {
		t.Helper()
		v, ok := q.pop()
		if !ok || v != want {
			t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, want)
		}
		want++
	}
	// A queue that never drains: 100 resident items, 10k through.
	for ; next < 100; next++ {
		q.push(next)
	}
	for i := 0; i < 10000; i++ {
		q.push(next)
		next++
		pop()
		if q.len() != 100 {
			t.Fatalf("len = %d, want 100", q.len())
		}
	}
	if cap(q.items) > 512 {
		t.Fatalf("backing array grew to %d for 100 resident items", cap(q.items))
	}
	for q.len() > 0 {
		pop()
	}
	if _, ok := q.pop(); ok || q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue not reset: head %d, len %d", q.head, len(q.items))
	}
}

// nest builds a kernel whose first Run stacks its processes: "outer"
// starts, parks and — dispatching from its Park — switches into
// "middle", which parks and switches into "inner". inner's body
// therefore runs three levels below Run, with outer and middle blocked
// in their resume of a descendant; it gets to check that through depth.
// Each body defers a note to unwound and logs its finish time to done.
type nest struct {
	k       *Kernel
	unwound []string
	done    map[string]float64
}

func newNest(inner func(n *nest, p *Proc)) *nest {
	n := &nest{k: New(), done: map[string]float64{}}
	body := func(name string, work func(p *Proc)) {
		n.k.Spawn(name, func(p *Proc) {
			defer func() { n.unwound = append(n.unwound, name) }()
			work(p)
			n.done[name] = p.Now()
		})
	}
	body("outer", func(p *Proc) { p.Delay(10) })
	body("middle", func(p *Proc) { p.Delay(20) })
	body("inner", func(p *Proc) { inner(n, p) })
	return n
}

// depth reports how many processes are blocked in a nested resume.
func (n *nest) depth() int {
	d := 0
	for _, p := range n.k.live {
		if p.ancestor {
			d++
		}
	}
	return d
}

// finish runs the kernel dry and checks every process ended when it
// should have: the nest left nobody wedged.
func (n *nest) finish(t *testing.T, innerAt float64) {
	t.Helper()
	n.k.Run()
	if n.k.Procs() != 0 || n.done["outer"] != 10 || n.done["middle"] != 20 || n.done["inner"] != innerAt {
		t.Fatalf("after the final Run: %d live, finished %v; want 0 live, outer at 10, middle at 20, inner at %v",
			n.k.Procs(), n.done, innerAt)
	}
	if n.depth() != 0 {
		t.Fatalf("%d processes still marked as ancestors", n.depth())
	}
	n.k.Close()
}

func TestCallbackPanicUnderNestedDispatch(t *testing.T) {
	depth := -1
	n := newNest(func(n *nest, p *Proc) { p.Delay(5) })
	n.k.After(1, func() {
		depth = n.depth() // inner is dispatching, outer and middle wait on it
		panic("callback boom")
	})
	var raised any
	func() {
		defer func() { raised = recover() }()
		n.k.Run()
	}()
	if raised != "callback boom" {
		t.Fatalf("Run raised %v, want the callback's own value", raised)
	}
	if depth != 2 {
		t.Fatalf("the callback ran %d levels below a process, want 2", depth)
	}
	if n.k.Procs() != 3 || n.k.Now() != 1 || len(n.unwound) != 0 {
		t.Fatalf("after the panic: %d live at t = %v, unwound %v; want all 3 parked at 1", n.k.Procs(), n.k.Now(), n.unwound)
	}
	n.finish(t, 5)
}

func TestProcessPanicUnderNestedDispatch(t *testing.T) {
	depth := -1
	n := newNest(func(n *nest, p *Proc) {
		depth = n.depth()
		panic("boom")
	})
	msg := mustPanic(t, "Run over a process panicking two levels down", n.k.Run)
	if msg != `des: process "inner" panicked: boom` {
		t.Fatalf("Run raised %q, want inner's panic exactly once, not wrapped in its dispatchers' names", msg)
	}
	if depth != 2 {
		t.Fatalf("inner ran %d levels below a process, want 2", depth)
	}
	if n.k.Procs() != 2 || fmt.Sprint(n.unwound) != "[inner]" {
		t.Fatalf("after the panic: %d live, unwound %v; want outer and middle parked and inner gone", n.k.Procs(), n.unwound)
	}
	delete(n.done, "inner")
	n.finish(t, 0)
}

func TestStopUnderNestedDispatch(t *testing.T) {
	depth, fired := -1, false
	n := newNest(func(n *nest, p *Proc) {
		depth = n.depth()
		n.k.Stop()
		p.Delay(0)
	})
	n.k.After(0, func() { fired = true }) // queued behind the three starts, ahead of inner's wake
	n.k.Run()
	if depth != 2 {
		t.Fatalf("Stop was called %d levels below a process, want 2", depth)
	}
	if fired || n.k.Pending() != 4 || n.k.Procs() != 3 {
		t.Fatalf("after Stop: fired = %v, %d pending, %d live; want nothing fired, 4 pending, 3 live", fired, n.k.Pending(), n.k.Procs())
	}
	n.finish(t, 0)
	if !fired {
		t.Fatal("the event Stop held back never fired")
	}
}

func TestHorizonAndCloseUnderNestedDispatch(t *testing.T) {
	depth, fired := -1, false
	n := newNest(func(n *nest, p *Proc) {
		depth = n.depth()
		defer p.Delay(1) // Close fails this park too instead of dispatching from it
		p.Delay(30)
	})
	n.k.After(7, func() { fired = true })
	n.k.RunUntil(5)
	if depth != 2 {
		t.Fatalf("inner parked %d levels below a process, want 2", depth)
	}
	if n.k.Now() != 5 || n.k.Pending() != 4 || fired {
		t.Fatalf("at the horizon: t = %v, %d pending, fired = %v; want 5, 4, false", n.k.Now(), n.k.Pending(), fired)
	}
	n.k.RunUntil(8)
	if !fired || n.k.Now() != 8 || n.k.Pending() != 3 {
		t.Fatalf("after a larger horizon: fired = %v, t = %v, %d pending; want true, 8, 3", fired, n.k.Now(), n.k.Pending())
	}
	before := runtime.NumGoroutine()
	n.k.Close()
	if len(n.unwound) != 3 || n.k.Procs() != 0 || n.k.Pending() != 0 || n.k.Now() != 8 {
		t.Fatalf("Close unwound %v, left %d live and %d pending at t = %v; want all three, 0, 0, 8",
			n.unwound, n.k.Procs(), n.k.Pending(), n.k.Now())
	}
	if after := runtime.NumGoroutine(); after != before-3 {
		t.Fatalf("goroutines %d -> %d across Close, want the 3 coroutines gone", before, after)
	}
}

func TestProcessFinishingUnderNestedDispatch(t *testing.T) {
	depth := -1
	n := newNest(func(n *nest, p *Proc) { depth = n.depth() }) // returns while nested
	n.k.Run()                                                  // one Run: middle and outer carry on dispatching
	if depth != 2 {
		t.Fatalf("inner finished %d levels below a process, want 2", depth)
	}
	// One start each; outer's wake is reached by middle yielding to it,
	// and only middle, parked by that yield, is switched into again.
	if got := n.k.Resumes(); got != 4 {
		t.Fatalf("%d resumes, want 4", got)
	}
	n.finish(t, 0)
}
