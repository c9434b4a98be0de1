package des

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := New()
	if got := k.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := New()
	var order []float64
	for _, d := range []float64{3, 1, 2, 5, 4} {
		d := d
		k.After(d, func() { order = append(order, d) })
	}
	k.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5", k.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(7, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v, want ascending schedule order", order)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	k := New()
	fired := false
	e := k.After(1, func() { fired = true })
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelIsIdempotentAndSafeAfterFire(t *testing.T) {
	k := New()
	e := k.After(1, func() {})
	k.Run()
	k.Cancel(e) // after fire: no-op
	k.Cancel(e) // again: no-op
	k.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	k := New()
	var fired []int
	events := make([]*Event, 20)
	for i := range events {
		i := i
		events[i] = k.After(float64(i+1), func() { fired = append(fired, i) })
	}
	// Cancel every third event.
	for i := 0; i < len(events); i += 3 {
		k.Cancel(events[i])
	}
	k.Run()
	for _, v := range fired {
		if v%3 == 0 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
	if len(fired) != 13 {
		t.Fatalf("fired %d events, want 13", len(fired))
	}
}

func TestEventSchedulingFromWithinEvent(t *testing.T) {
	k := New()
	var times []float64
	k.After(1, func() {
		k.After(1, func() { times = append(times, k.Now()) })
	})
	k.Run()
	if len(times) != 1 || times[0] != 2 {
		t.Fatalf("nested event fired at %v, want [2]", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.After(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(1, func() {})
	})
	k.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	k := New()
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		k.After(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if k.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", k.Now())
	}
	k.Run() // drain the rest
	if len(fired) != 4 {
		t.Fatalf("after full Run fired %v, want all 4", fired)
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := New()
	count := 0
	for i := 1; i <= 10; i++ {
		k.After(float64(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("processed %d events after Stop, want 3", count)
	}
}

// Stop ends one Run, not the kernel: the next Run starts with the flag
// cleared and carries on from the event Stop left queued.
func TestRunAfterStopDrainsTheRest(t *testing.T) {
	k := New()
	defer k.Close()
	var finished []float64
	for _, d := range []float64{2, 3, 7} {
		k.Spawn("p", func(p *Proc) {
			p.Delay(d)
			if d == 3 {
				k.Stop()
			}
			finished = append(finished, p.Now())
		})
	}
	k.Run()
	if k.Now() != 3 || len(finished) != 2 || k.Procs() != 1 {
		t.Fatalf("after Stop: t = %v, finished %v, %d live; want 3, [2 3], 1", k.Now(), finished, k.Procs())
	}
	k.Run()
	if k.Now() != 7 || len(finished) != 3 || k.Procs() != 0 || k.Pending() != 0 {
		t.Fatalf("second Run: t = %v, finished %v, %d live, %d pending; want 7, all three, 0, 0",
			k.Now(), finished, k.Procs(), k.Pending())
	}
}

// actionLog is an Action: the receiver carries what a closure would
// have captured.
type actionLog struct {
	k     *Kernel
	name  string
	order *[]string
}

func (a *actionLog) Fire() { *a.order = append(*a.order, fmt.Sprintf("%s@%v", a.name, a.k.Now())) }

// Call takes its turn exactly where After would: one sequence number,
// schedule order among simultaneous events, and a record that goes back
// to the free list when it fires.
func TestCallOrdersLikeAfter(t *testing.T) {
	run := func(call func(k *Kernel, d float64, a *actionLog)) []string {
		k := New()
		defer k.Close()
		var order []string
		note := func(name string) *actionLog { return &actionLog{k: k, name: name, order: &order} }
		k.After(1, note("a").Fire)
		call(k, 1, note("b"))
		k.After(1, note("c").Fire)
		call(k, 0.5, note("d"))
		k.Spawn("p", func(p *Proc) {
			p.Delay(1)
			call(k, 0, note("e"))
			p.Delay(0)
			note("p").Fire()
		})
		k.Run()
		return order
	}
	got := run(func(k *Kernel, d float64, a *actionLog) { k.Call(d, a) })
	want := run(func(k *Kernel, d float64, a *actionLog) { k.After(d, a.Fire) })
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != "[d@0.5 a@1 b@1 c@1 e@1 p@1]" {
		t.Fatalf("Call order %v, After order %v", got, want)
	}

	k := New()
	defer k.Close()
	var ticks tickCount
	k.Call(1, &ticks)
	k.Run()
	if got := testing.AllocsPerRun(100, func() { k.Call(1, &ticks); k.Run() }); got != 0 || ticks != 102 {
		t.Errorf("%v allocs per Call round over %d rounds, want 0 over 102", got, ticks)
	}
	mustPanic(t, "Call with a negative delay", func() { k.Call(-1, &ticks) })
	mustPanic(t, "Call with a nil Action", func() { k.Call(1, nil) })
}

type tickCount int

func (c *tickCount) Fire() { *c++ }

func TestPendingCountsQueuedEvents(t *testing.T) {
	k := New()
	e1 := k.After(1, func() {})
	k.After(2, func() {})
	if got := k.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	k.Cancel(e1)
	if got := k.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
}

// Property: for any set of non-negative delays, events fire in
// nondecreasing time order and the final clock equals the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		k := New()
		var fired []float64
		max := 0.0
		for _, r := range raw {
			d := float64(r) / 16.0
			if d > max {
				max = d
			}
			k.After(d, func() { fired = append(fired, d) })
		}
		k.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw) && k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset leaves exactly the complement to fire.
func TestCancelSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		k := New()
		n := 1 + rng.Intn(64)
		events := make([]*Event, n)
		fired := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = k.After(rng.Float64()*100, func() { fired[i] = true })
		}
		canceled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				canceled[i] = true
				k.Cancel(events[i])
			}
		}
		k.Run()
		for i := 0; i < n; i++ {
			if fired[i] == canceled[i] {
				t.Fatalf("trial %d event %d: fired=%v canceled=%v", trial, i, fired[i], canceled[i])
			}
		}
	}
}

func TestHeapRemoveStress(t *testing.T) {
	// Exercise removals at arbitrary heap positions.
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	var live []*Event
	for i := 0; i < 500; i++ {
		e := &Event{at: rng.Float64() * 1000, seq: uint64(i)}
		h.push(e)
		live = append(live, e)
	}
	// Remove 250 random events.
	for i := 0; i < 250; i++ {
		j := rng.Intn(len(live))
		e := live[j]
		live = append(live[:j], live[j+1:]...)
		h.remove(e.index)
	}
	// Drain and check sortedness.
	prev := -1.0
	count := 0
	for h.len() > 0 {
		e := h.pop()
		if e.at < prev {
			t.Fatalf("heap pop out of order: %v after %v", e.at, prev)
		}
		prev = e.at
		count++
	}
	if count != 250 {
		t.Fatalf("drained %d events, want 250", count)
	}
}
