package des_test

// Run-ahead ≡ queue-and-park. A wait that runs ahead (Proc.RunAhead:
// Delay, cpu.Host.ComputeWeighted) must leave no trace: the same things
// happen at the same instants in the same order, having consumed the
// same sequence numbers, as when every wait queues its wake and parks. The reference is the same kernel with the
// fast path defeated by the test-only QueueOnly hook. The tests live in
// an external package so that they may bring in package cpu.

import (
	"fmt"
	"math/rand"
	"testing"

	"contention/internal/cpu"
	"contention/internal/des"
)

// mixResult is everything a run leaves behind that a caller can see.
type mixResult struct {
	journal    []string
	clocks     []float64 // after each RunUntil leg and the final Run
	pending    []int
	busy, load float64
	completed  int
	dispatched uint64
}

// mix runs a seeded random scenario — processes mixing delays, weighted
// computation, stalls, paging, a semaphore, a mailbox and After
// callbacks, with times drawn from a coarse grid as often as not so that
// ties are common — in three legs (two RunUntil horizons that waits
// straddle, then Run to the end), journaling (time, sequence number,
// actor, action).
// Every random draw is made before the run starts, so the scenario does
// not depend on the order it is executed in.
func mix(seed int64, queueOnly bool) mixResult {
	rng := rand.New(rand.NewSource(seed))
	k := des.New()
	defer k.Close()
	if queueOnly {
		k.QueueOnly()
	}
	var res mixResult
	log := func(who, format string, args ...any) {
		res.journal = append(res.journal, fmt.Sprintf("%v #%d %s ", k.Now(), k.Seq(), who)+fmt.Sprintf(format, args...))
	}
	// duration draws from a 1/8 s grid half the time (ties, zero waits)
	// and from the continuum otherwise.
	duration := func(max float64) float64 {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(int(max*8)+1)) / 8
		}
		return rng.Float64() * max
	}

	h := cpu.NewHost(k, "sun", []float64{1, 2.5, 1e3}[rng.Intn(3)])
	if rng.Intn(2) == 0 {
		if err := h.ConfigureMemory(cpu.MemoryConfig{Pages: 100, Thrash: 2}); err != nil {
			panic(err)
		}
	}
	sem := des.NewSemaphore(k, 1+rng.Intn(2))
	mb := des.NewMailbox[int](k, "mb")

	type step struct {
		kind         int
		d, work, wgt float64
		pages        int
	}
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		who := fmt.Sprintf("p%d", i)
		steps := make([]step, 10+rng.Intn(30))
		for j := range steps {
			steps[j] = step{
				kind:  rng.Intn(9),
				d:     duration(1.5),
				work:  duration(2) * h.Speed(),
				wgt:   []float64{0.5, 1, 1, 2, 3}[rng.Intn(5)],
				pages: 30 + rng.Intn(90),
			}
			if rng.Intn(12) == 0 {
				steps[j].work = 1e-10 // below the host's retirement epsilon
			}
		}
		start := duration(1)
		k.Spawn(who, func(p *des.Proc) {
			p.Delay(start)
			for j, s := range steps {
				switch s.kind {
				case 0, 1:
					p.Delay(s.d)
					log(who, "delayed %v", s.d)
				case 2, 3:
					h.ComputeWeighted(p, s.work, s.wgt)
					log(who, "computed %v at weight %v, %d done", s.work, s.wgt, h.Completed())
				case 4:
					sem.Acquire(p)
					log(who, "acquired")
					p.Delay(s.d / 4)
					sem.Release()
				case 5:
					mb.Send(j)
					log(who, "sent %d", j)
				case 6:
					if mb.Len() > 0 || j%2 == 0 {
						log(who, "received %d", mb.Recv(p))
					}
				case 7:
					r, err := h.Reserve(s.pages)
					if err != nil {
						panic(err)
					}
					h.Compute(p, s.work)
					r.Release()
					log(who, "computed %v holding %d pages", s.work, s.pages)
				case 8:
					d, stall := s.d, s.d/3
					k.After(d, func() {
						h.Stall(stall)
						mb.Send(-j)
						log(who, "callback stalled the host for %v", stall)
					})
				}
			}
			log(who, "finished")
		})
	}
	// Enough messages that most receivers get one, late enough that
	// some park first.
	k.Spawn("feeder", func(p *des.Proc) {
		for i := 0; i < 12; i++ {
			p.Delay(0.75)
			mb.Send(1000 + i)
		}
	})

	for _, horizon := range []float64{2.3, 6.125} {
		k.RunUntil(horizon)
		res.clocks = append(res.clocks, k.Now())
		res.pending = append(res.pending, k.Pending())
	}
	k.Run()
	res.clocks = append(res.clocks, k.Now())
	res.pending = append(res.pending, k.Pending())
	res.busy, res.load, res.completed = h.BusyTime(), h.LoadIntegral(), h.Completed()
	res.dispatched = k.Dispatched()
	return res
}

func TestRunAheadMatchesQueueAndPark(t *testing.T) {
	var ahead, queued uint64
	for seed := int64(0); seed < 300; seed++ {
		got, want := mix(seed, false), mix(seed, true)
		ahead += got.dispatched
		queued += want.dispatched
		if len(got.journal) != len(want.journal) {
			t.Fatalf("seed %d: %d journal entries running ahead, %d queueing", seed, len(got.journal), len(want.journal))
		}
		for i := range want.journal {
			if got.journal[i] != want.journal[i] {
				t.Fatalf("seed %d: journals diverge at entry %d:\n  ahead:  %s\n  queued: %s", seed, i, got.journal[i], want.journal[i])
			}
		}
		if len(want.journal) < 20 {
			t.Fatalf("seed %d: only %d journal entries", seed, len(want.journal))
		}
		for i := range want.clocks {
			if got.clocks[i] != want.clocks[i] || got.pending[i] != want.pending[i] {
				t.Fatalf("seed %d, leg %d: clock %v with %d pending running ahead, %v with %d queueing",
					seed, i, got.clocks[i], got.pending[i], want.clocks[i], want.pending[i])
			}
		}
		if got.busy != want.busy || got.load != want.load || got.completed != want.completed {
			t.Fatalf("seed %d: host busy %v, load integral %v, %d completed running ahead; %v, %v, %d queueing",
				seed, got.busy, got.load, got.completed, want.busy, want.load, want.completed)
		}
	}
	// The comparison means something only if the fast path was taken.
	if ahead*10 > queued*9 {
		t.Errorf("%d events dispatched running ahead against %d queueing: the fast path hardly fired", ahead, queued)
	}
}

// both runs a scenario on a kernel that runs ahead and on one that does
// not; body reports what it observed.
func both(t *testing.T, scenario func(k *des.Kernel) string) {
	t.Helper()
	var seen [2]string
	for i := range seen {
		k := des.New()
		if i == 1 {
			k.QueueOnly()
		}
		seen[i] = scenario(k)
		k.Close()
	}
	if seen[0] != seen[1] {
		t.Errorf("running ahead: %s\nqueueing:      %s", seen[0], seen[1])
	}
}

// An event queued for exactly the instant a Delay ends holds the smaller
// sequence number and fires before the delayed process continues —
// whether it was scheduled long before or by the process itself.
func TestRunAheadTieGoesToTheQueuedEvent(t *testing.T) {
	both(t, func(k *des.Kernel) string {
		var order []string
		k.At(1, func() { order = append(order, "early event") })
		k.Spawn("p", func(p *des.Proc) {
			p.Delay(1)
			order = append(order, "after first delay")
			k.After(1, func() { order = append(order, "own event") })
			p.Delay(1)
			order = append(order, "after second delay")
		})
		k.Run()
		got := fmt.Sprint(order)
		if want := "[early event after first delay own event after second delay]"; got != want {
			t.Errorf("order %s, want %s", got, want)
		}
		return got
	})
}

// A Delay that crosses the RunUntil horizon goes the slow way: the clock
// stops at the horizon with the wake still queued, and the next RunUntil
// carries on from there.
func TestRunAheadStopsAtTheHorizon(t *testing.T) {
	both(t, func(k *des.Kernel) string {
		rounds := 0
		k.Spawn("p", func(p *des.Proc) {
			for rounds < 100 {
				p.Delay(1)
				rounds++
			}
		})
		k.RunUntil(10.5)
		first := fmt.Sprintf("clock %v, %d rounds, %d pending", k.Now(), rounds, k.Pending())
		if want := "clock 10.5, 10 rounds, 1 pending"; first != want {
			t.Errorf("after RunUntil(10.5): %s, want %s", first, want)
		}
		k.RunUntil(12)
		second := fmt.Sprintf("clock %v, %d rounds, %d pending", k.Now(), rounds, k.Pending())
		if want := "clock 12, 12 rounds, 1 pending"; second != want {
			t.Errorf("after RunUntil(12): %s, want %s", second, want)
		}
		return first + "; " + second
	})
}

// Stop ends the Run at the stopping process's next wait, however far it
// had been running ahead, and the next Run carries on from that wait.
func TestRunAheadHonoursStop(t *testing.T) {
	both(t, func(k *des.Kernel) string {
		var marks []float64
		k.Spawn("p", func(p *des.Proc) {
			p.Delay(1)
			p.Delay(1)
			k.Stop()
			p.Delay(1)
			marks = append(marks, p.Now())
		})
		k.Run()
		first := fmt.Sprintf("clock %v, marks %v, %d pending", k.Now(), marks, k.Pending())
		if want := "clock 2, marks [], 1 pending"; first != want {
			t.Errorf("after the stopped Run: %s, want %s", first, want)
		}
		k.Run()
		second := fmt.Sprintf("clock %v, marks %v, %d pending", k.Now(), marks, k.Pending())
		if want := "clock 3, marks [3], 0 pending"; second != want {
			t.Errorf("after the second Run: %s, want %s", second, want)
		}
		return first + "; " + second
	})
}

// A body that never once parked on its own — every wait ran ahead until
// the horizon — is still unwound by Close, deferred calls included.
func TestCloseUnwindsABodyThatOnlyRanAhead(t *testing.T) {
	k := des.New()
	unwound := false
	k.Spawn("p", func(p *des.Proc) {
		defer func() { unwound = true }()
		for i := 0; i < 2000; i++ {
			p.Delay(1)
		}
		t.Error("the body ran past the horizon")
	})
	before := k.Dispatched()
	k.RunUntil(1000.5)
	if got := k.Dispatched() - before; got != 1 {
		t.Fatalf("%d events dispatched over 1000 delays, want only the process's start", got)
	}
	k.Close()
	if !unwound || k.Procs() != 0 {
		t.Fatalf("after Close: unwound %v, %d live processes", unwound, k.Procs())
	}
}

// A completion that happens in place does everything the queued one
// would, in its order. Here it retires two jobs together — the new one,
// the strict earliest finisher, and the resident one, 4e-10 s behind it
// and so left with 2e-10 units of work, below the host's epsilon — and
// wakes them in arrival order: the resident job's process first, through
// the queue, so the new job's own wake ties with it and parks behind it.
func TestRunAheadCompletionRetiresJobsInArrivalOrder(t *testing.T) {
	both(t, func(k *des.Kernel) string {
		h := cpu.NewHost(k, "sun", 1)
		var order []string
		job := func(name string, start, work float64) {
			k.Spawn(name, func(p *des.Proc) {
				p.Delay(start)
				h.Compute(p, work)
				order = append(order, fmt.Sprintf("%s done at %v #%d", name, p.Now(), k.Seq()))
			})
		}
		job("resident", 0, 1)
		job("new", 0.5, 0.5-2e-10)
		k.Run()
		got := fmt.Sprintf("%v, %d completed, busy %v", order, h.Completed(), h.BusyTime())
		if len(order) != 2 || order[0][:8] != "resident" {
			t.Errorf("%s; want both jobs retired by one completion, the resident one woken first", got)
		}
		return got
	})
}

// At speed 1e6 past t=1e4 one ulp of the clock is worth more work than
// the host's epsilon, so a finish instant often rounds short of the work:
// the completion then finds the job not yet due, retires nobody, and the
// sub-ulp rule re-arms it for the same instant. In place or queued, the
// first completion leaves the process parked behind the second. Same
// clock, same numbers.
func TestRunAheadCompletionThatRetiresNobody(t *testing.T) {
	var dispatched [2]uint64
	run := 0
	both(t, func(k *des.Kernel) string {
		h := cpu.NewHost(k, "fast", 1e6)
		k.Spawn("p", func(p *des.Proc) {
			p.Delay(1e4)
			for i := 0; i < 2000; i++ {
				h.Compute(p, 1+float64(i%7)/3)
			}
		})
		k.Run()
		dispatched[run] = k.Dispatched()
		run++
		return fmt.Sprintf("clock %v #%d, %d completed, busy %v", k.Now(), k.Seq(), h.Completed(), h.BusyTime())
	})
	if ahead, queued := dispatched[0], dispatched[1]; ahead < 100 || ahead > queued-100 {
		t.Errorf("%d events dispatched running ahead, %d queueing; want some completions to retire the job and some not", ahead, queued)
	}
}

// The fast paths fire: a lone process's delays and a lone job's
// computations dispatch no heap event at all, and so do short jobs
// beside a long-running one. A job that is not the earliest finisher
// still takes the next completion — another job's — in place, and
// queues like any other from there.
func TestRunAheadDispatchesNoEvents(t *testing.T) {
	dispatched := func(queueOnly bool, hogWork float64, body func(p *des.Proc, h *cpu.Host)) (n uint64) {
		k := des.New()
		defer k.Close()
		if queueOnly {
			k.QueueOnly()
		}
		h := cpu.NewHost(k, "sun", 1)
		if hogWork > 0 {
			k.Spawn("hog", func(p *des.Proc) { h.Compute(p, hogWork) })
		}
		k.Spawn("p", func(p *des.Proc) {
			p.Delay(0.5) // the hog, if any, is resident by now
			n = k.Dispatched()
			body(p, h)
			n = k.Dispatched() - n
			k.Stop()
		})
		k.Run()
		return n
	}
	delays := func(p *des.Proc, h *cpu.Host) {
		for i := 0; i < 1000; i++ {
			p.Delay(0.25)
		}
	}
	computes := func(p *des.Proc, h *cpu.Host) {
		for i := 0; i < 1000; i++ {
			h.ComputeWeighted(p, 0.25, 2)
		}
	}
	for name, tc := range map[string]struct {
		hogWork float64
		body    func(p *des.Proc, h *cpu.Host)
	}{
		"1000 delays":                    {0, delays},
		"1000 computations, alone":       {0, computes},
		"1000 computations beside a hog": {1e9, computes},
		// The completion record is queued for 1.0, when the first job
		// would have finished alone; the second now finishes first, at
		// 1.3, and the record is the one event RunAhead looks past.
		"a job overtaking the resident one": {1, func(p *des.Proc, h *cpu.Host) { h.Compute(p, 0.4) }},
		"1000 delays while a hog computes":  {1e9, delays},
	} {
		if got := dispatched(false, tc.hogWork, tc.body); got != 0 {
			t.Errorf("%s: %d events dispatched, want 0 (%d without run-ahead)", name, got, dispatched(true, tc.hogWork, tc.body))
		}
	}
	// The hog finishes first, in the middle of p's one long job: that
	// completion happens in p's Compute, the hog's wake, p's own
	// completion and p's wake go through the queue.
	late := func(p *des.Proc, h *cpu.Host) { h.Compute(p, 20) }
	if got, want := dispatched(false, 10, late), dispatched(true, 10, late); got != 3 || want != 4 {
		t.Errorf("a job that is not the earliest finisher: %d events dispatched, %d without run-ahead; want 3 and 4", got, want)
	}
}
