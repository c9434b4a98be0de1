package des

import (
	"testing"
)

func TestProcDelayAdvancesClock(t *testing.T) {
	k := New()
	var at []float64
	k.Spawn("a", func(p *Proc) {
		p.Delay(1.5)
		at = append(at, p.Now())
		p.Delay(2.5)
		at = append(at, p.Now())
	})
	k.Run()
	if len(at) != 2 || at[0] != 1.5 || at[1] != 4.0 {
		t.Fatalf("observed times %v, want [1.5 4]", at)
	}
}

func TestProcZeroDelayYields(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Delay(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Delay(0)
		order = append(order, "b2")
	})
	k.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("interleave = %v, want %v", order, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := New()
		var order []string
		for _, name := range []string{"x", "y", "z"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Delay(1)
					order = append(order, name)
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 9 {
		t.Fatalf("got %d steps, want 9", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleave: %v vs %v", a, b)
		}
	}
}

func TestProcCountTracksLifetimes(t *testing.T) {
	k := New()
	k.Spawn("short", func(p *Proc) { p.Delay(1) })
	k.Spawn("long", func(p *Proc) { p.Delay(10) })
	k.RunUntil(5)
	if got := k.Procs(); got != 1 {
		t.Fatalf("Procs at t=5: %d, want 1", got)
	}
	k.Run()
	if got := k.Procs(); got != 0 {
		t.Fatalf("Procs at end: %d, want 0", got)
	}
}

func TestMailboxDeliversFIFO(t *testing.T) {
	k := New()
	mb := NewMailbox[int](k, "mb")
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(p))
		}
	})
	k.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Delay(1)
			mb.Send(i * 10)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("received %v, want [10 20 30]", got)
	}
}

func TestMailboxRecvBlocksUntilSend(t *testing.T) {
	k := New()
	mb := NewMailbox[string](k, "mb")
	var recvAt float64
	k.Spawn("recv", func(p *Proc) {
		mb.Recv(p)
		recvAt = p.Now()
	})
	k.Spawn("send", func(p *Proc) {
		p.Delay(3)
		mb.Send("hi")
	})
	k.Run()
	if recvAt != 3 {
		t.Fatalf("receive completed at %v, want 3", recvAt)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	k := New()
	mb := NewMailbox[int](k, "mb")
	if _, ok := mb.TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox returned ok")
	}
	mb.Send(1)
	if v, ok := mb.TryRecv(); !ok || v != 1 {
		t.Fatalf("TryRecv = (%v,%v), want (1,true)", v, ok)
	}
	if mb.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", mb.Len())
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := New()
	sem := NewSemaphore(k, 2)
	active, peak := 0, 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			sem.Acquire(p)
			active++
			if active > peak {
				peak = active
			}
			p.Delay(1)
			active--
			sem.Release()
		})
	}
	k.Run()
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if k.Now() != 3 { // ceil(5/2) waves of 1s each
		t.Fatalf("finished at %v, want 3", k.Now())
	}
	if sem.Available() != 2 {
		t.Fatalf("Available = %d at end, want 2", sem.Available())
	}
}

func TestSemaphoreFIFOOrder(t *testing.T) {
	k := New()
	sem := NewSemaphore(k, 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Delay(float64(i) * 0.001) // stagger arrival
			sem.Acquire(p)
			order = append(order, i)
			p.Delay(1)
			sem.Release()
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	k := New()
	sem := NewSemaphore(k, 1)
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire failed with a free permit")
	}
	if sem.TryAcquire() {
		t.Fatal("TryAcquire succeeded with no permits")
	}
	sem.Release()
	if sem.Available() != 1 {
		t.Fatalf("Available = %d, want 1", sem.Available())
	}
}

func TestResumeWakesParkedViaDelayIndirectly(t *testing.T) {
	// A process parked in a mailbox is woken by a Send from an event
	// callback (kernel context), not another process.
	k := New()
	mb := NewMailbox[int](k, "mb")
	got := 0
	k.Spawn("r", func(p *Proc) { got = mb.Recv(p) })
	k.After(4, func() { mb.Send(99) })
	k.Run()
	if got != 99 {
		t.Fatalf("got %d, want 99", got)
	}
	if k.Now() != 4 {
		t.Fatalf("clock %v, want 4", k.Now())
	}
}
