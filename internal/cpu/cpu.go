// Package cpu models a time-shared uniprocessor as an ideal
// processor-sharing (PS) resource: CPU cycles are split equally among
// all resident jobs, which is precisely the scheduling law the paper
// observed on the Sun front-ends ("CPU cycles are split equally among
// all the processes running on the Sun with the same priority"), and the
// origin of the slowdown = p+1 rule.
package cpu

import (
	"fmt"
	"math"

	"contention/internal/des"
)

// epsilon below which remaining work counts as finished; guards float drift.
const eps = 1e-9

// Host is a processor-sharing CPU attached to a simulation kernel.
type Host struct {
	k     *des.Kernel
	speed float64 // work units per second when a job runs alone

	jobs       []job
	done       []job      // retireDue's scratch, empty between calls
	completion *des.Event // calls finishDue; created once, then re-timed
	lastUpdate float64

	busyTime     float64 // total time with ≥1 resident job
	loadIntegral float64 // ∫ (number of resident jobs) dt
	completed    int

	// stallUntil is the end of the current stall window: until then the
	// host makes no progress on resident jobs (see Stall). Jobs stay
	// resident — a stalled host is busy, not idle.
	stallUntil float64
	stalls     int

	// Memory extension (see memory.go).
	mem      MemoryConfig
	hasMem   bool
	resident int
}

// job is one resident computation: the process parked in Compute, or
// the Action ComputeAsync calls when the work is done.
type job struct {
	remaining float64
	proc      *des.Proc
	act       des.Action
}

// NewHost returns a PS host with the given speed (work units/second).
// name labels the host at the call site; the host does not keep it.
func NewHost(k *des.Kernel, name string, speed float64) *Host {
	if speed <= 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("cpu: invalid speed %v", speed))
	}
	return &Host{k: k, speed: speed}
}

// Load reports the current number of resident jobs.
func (h *Host) Load() int { return len(h.jobs) }

// BusyTime reports the cumulative virtual time during which at least one
// job was resident (updated lazily; call after the kernel is idle or at
// event boundaries for exact values).
func (h *Host) BusyTime() float64 {
	h.advance()
	return h.busyTime
}

// LoadIntegral reports ∫(number of resident jobs)dt since t=0; windowed
// averages come from differencing two readings.
func (h *Host) LoadIntegral() float64 {
	h.advance()
	return h.loadIntegral
}

// Completed reports the number of jobs that have finished service.
func (h *Host) Completed() int { return h.completed }

// Compute runs `work` units on the host under processor sharing,
// blocking p until the work completes. Zero work yields once and returns.
func (h *Host) Compute(p *des.Proc, work float64) {
	checkWork(work)
	if work == 0 {
		p.Delay(0)
		return
	}
	h.advance()
	h.jobs = append(h.jobs, job{remaining: work, proc: p})
	d := h.untilNextFinish()
	if !p.RunAhead(d, h.completion) {
		h.arm(d)
		p.Park()
		return
	}
	// Run-ahead. The completion that arm(d) would have queued is provably
	// the very next event the kernel pops (the record's present position,
	// which arm would have changed, is the one thing RunAhead looks
	// past), so it was neither queued nor popped: its sequence number is
	// consumed, the clock reads its instant, and what it does happens
	// here. p's own wake, which retireDue left out, comes last — its job
	// is the newest, so finishDue would have queued it last too — and
	// runs ahead in its turn unless something now shares the instant.
	if h.retireDue(p) {
		p.Delay(0)
	} else {
		p.Park()
	}
}

// ComputeAsync is Compute for a caller that is not a process: the job
// carries a, and the completion that retires it schedules a.Fire() as a
// zero-delay Call where it would have resumed a parked process — one
// sequence number at the same place. Zero work is Call(0, a), as it is
// Delay(0) in Compute. ComputeAsync returns at once and never runs
// ahead: the job's completion is always a queued event.
func (h *Host) ComputeAsync(work float64, a des.Action) {
	if a == nil {
		panic("cpu: ComputeAsync with a nil Action")
	}
	checkWork(work)
	if work == 0 {
		h.k.Call(0, a)
		return
	}
	h.advance()
	h.jobs = append(h.jobs, job{remaining: work, act: a})
	h.arm(h.untilNextFinish())
}

// SpawnJob starts a job of work units that nobody waits for: it joins
// the host one zero-delay call from now, where a process spawned to
// compute it would start, and leaves when it is done. A CPU-bound
// contender is such a job of 1e18 units: it computes until the horizon.
func (h *Host) SpawnJob(work float64) {
	checkWork(work)
	h.k.Call(0, &spawned{h: h, work: work})
}

// spawned is a SpawnJob job: the first call joins the host, the one
// that ends it does nothing.
type spawned struct {
	h    *Host
	work float64
}

// Fire implements des.Action.
func (s *spawned) Fire() {
	if h := s.h; h != nil {
		s.h = nil
		h.ComputeAsync(s.work, s)
	}
}

func checkWork(work float64) {
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("cpu: invalid work %v", work))
	}
}

// advance applies elapsed time to all resident jobs' remaining work.
// Time overlapping a stall window counts toward residency accounting but
// contributes no progress.
func (h *Host) advance() {
	now := h.k.Now()
	prev := h.lastUpdate
	dt := now - prev
	h.lastUpdate = now
	if dt <= 0 || len(h.jobs) == 0 {
		return
	}
	h.busyTime += dt
	h.loadIntegral += dt * float64(len(h.jobs))
	effDt := dt
	if h.stallUntil > prev {
		frozenEnd := math.Min(now, h.stallUntil)
		effDt -= frozenEnd - prev
	}
	if effDt <= 0 {
		return
	}
	eff := h.speed / h.PagingFactor()
	share := effDt * eff / float64(len(h.jobs))
	for i := range h.jobs {
		h.jobs[i].remaining -= share
	}
}

// Stall freezes all progress on the host for d seconds of virtual time —
// the fault model's host-stall / crash-restart-downtime window. Resident
// jobs keep their progress (checkpoint-restart semantics) and resume when
// the window ends; overlapping stalls merge.
func (h *Host) Stall(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("cpu: invalid stall duration %v", d))
	}
	if d == 0 {
		return
	}
	h.advance()
	if until := h.k.Now() + d; until > h.stallUntil {
		h.stallUntil = until
	}
	h.stalls++
	h.reschedule()
}

// Stalls reports the number of stall windows injected so far.
func (h *Host) Stalls() int { return h.stalls }

// reschedule re-times the completion event — one record for the host's
// lifetime — for the earliest finishing job given current membership.
func (h *Host) reschedule() {
	if len(h.jobs) == 0 {
		h.k.Cancel(h.completion)
		return
	}
	h.arm(h.untilNextFinish())
}

// arm re-times the completion event to fire d seconds from now.
func (h *Host) arm(d float64) {
	if h.completion == nil {
		h.completion = h.k.After(d, h.finishDue)
	} else {
		h.k.Reschedule(h.completion, d)
	}
}

// untilNextFinish reports how long from now the next completion is due:
// the rest of any stall window plus the earliest finish among the
// resident jobs (at least one) at their current shares.
func (h *Host) untilNextFinish() float64 {
	n := float64(len(h.jobs))
	eff := h.speed / h.PagingFactor()
	stallLeft := 0.0
	if h.stallUntil > h.k.Now() {
		stallLeft = h.stallUntil - h.k.Now()
	}
	next := math.Inf(1)
	for _, j := range h.jobs {
		t := j.remaining * n / eff
		if t < next {
			next = t
		}
	}
	if next < 0 {
		next = 0
	}
	if now := h.k.Now(); now+(stallLeft+next) == now {
		// The earliest finish is below the clock's resolution at now, so
		// the event fires at this same instant with no progress made and
		// would be re-armed forever. Work that needs no representable
		// time is done.
		for i := range h.jobs {
			if j := &h.jobs[i]; j.remaining*n/eff <= next {
				j.remaining = 0
			}
		}
	}
	return stallLeft + next
}

// finishDue is the completion event.
func (h *Host) finishDue() { h.retireDue(nil) }

// retireDue retires every job whose remaining work has reached zero.
// Survivors are filtered in place and the finished jobs collected in
// h.done, both in arrival order; the completion event is re-timed for
// the survivors and the finished jobs' processes are woken, in that
// order — a job's Action is called instead. Except self: when the
// completion happens in the middle of self's own Compute (run-ahead),
// self is running, not parked, and for its job retireDue only reports
// true.
func (h *Host) retireDue(self *des.Proc) (selfDone bool) {
	h.advance()
	keep := h.jobs[:0]
	for _, j := range h.jobs {
		if j.remaining <= eps {
			h.done = append(h.done, j)
		} else {
			keep = append(keep, j)
		}
	}
	clear(h.jobs[len(keep):])
	h.jobs = keep
	h.reschedule()
	for _, j := range h.done {
		h.completed++
		switch {
		case j.act != nil:
			h.k.Call(0, j.act)
		case j.proc == self:
			selfDone = true
		default:
			j.proc.Resume()
		}
	}
	clear(h.done)
	h.done = h.done[:0]
	return selfDone
}
