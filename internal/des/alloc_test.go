package des

import "testing"

// Each scenario below reaches a steady state in which one unit of
// virtual time is one round of the primitive; step advances one round.
// The wake events come off the kernel's free list, the wait queues and
// mailboxes reuse their backing arrays, and a coroutine switch
// allocates nothing, so a round costs zero allocations.

func delayLoop(k *Kernel) {
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Delay(1)
		}
	})
}

// handoffLoop contends two processes for one permit: every round the
// holder releases to the parked waiter and queues up again.
func handoffLoop(k *Kernel) {
	sem := NewSemaphore(k, 1)
	for i := 0; i < 2; i++ {
		k.Spawn("contender", func(p *Proc) {
			for {
				sem.Acquire(p)
				p.Delay(1)
				sem.Release()
			}
		})
	}
}

func pingPongLoop(k *Kernel) {
	ping, pong := NewMailbox[int](k, "ping"), NewMailbox[int](k, "pong")
	k.Spawn("pinger", func(p *Proc) {
		for i := 0; ; i++ {
			p.Delay(1)
			ping.Send(i)
			pong.Recv(p)
		}
	})
	k.Spawn("ponger", func(p *Proc) {
		for {
			pong.Send(ping.Recv(p))
		}
	})
}

func step(k *Kernel) { k.RunUntil(k.Now() + 1) }

func TestProcessPrimitivesAllocationFree(t *testing.T) {
	for name, setup := range map[string]func(*Kernel){
		"Delay":             delayLoop,
		"Semaphore handoff": handoffLoop,
		"Mailbox ping-pong": pingPongLoop,
	} {
		k := New()
		setup(k)
		k.RunUntil(8) // warm the free list, queues and heap
		if got := testing.AllocsPerRun(500, func() { step(k) }); got != 0 {
			t.Errorf("%s: %v allocs per round, want 0", name, got)
		}
		// One round per Run ends every wait at the horizon, where it
		// queues; with sixteen, the waits that can run ahead do.
		events := k.Dispatched()
		if got := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + 16) }); got != 0 {
			t.Errorf("%s: %v allocs per 16 rounds, want 0", name, got)
		}
		if got := k.Dispatched() - events; name == "Delay" && got > 101 {
			t.Errorf("%s: %d events dispatched over 101 runs of 16 rounds, want one per run", name, got)
		}
		k.Close()
	}
}

// A process whose own wake is the next event returns from Park without
// a coroutine switch: the Delay loop is switched into once per Run,
// however many rounds the Run covers.
func TestDelayLoopNeedsNoResume(t *testing.T) {
	k := New()
	defer k.Close()
	delayLoop(k)
	k.RunUntil(8)
	before := k.Resumes()
	k.RunUntil(k.Now() + 1000)
	if got := k.Resumes() - before; got != 1 {
		t.Errorf("%d resumes over 1000 rounds in one Run, want 1", got)
	}
}

func benchRounds(b *testing.B, setup func(*Kernel)) {
	k := New()
	defer k.Close()
	setup(k)
	k.RunUntil(8)
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntil(k.Now() + float64(b.N))
}

// BenchmarkDelay prices one park that finds its own wake next: a wake
// event through the heap and no coroutine switch.
func BenchmarkDelay(b *testing.B) { benchRounds(b, delayLoop) }

// BenchmarkHandoff prices one semaphore hand-off between two
// processes (two parks and one coroutine switch per round).
func BenchmarkHandoff(b *testing.B) { benchRounds(b, handoffLoop) }
