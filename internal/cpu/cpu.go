// Package cpu models a time-shared uniprocessor as an ideal
// processor-sharing (PS) resource: CPU cycles are split equally among
// all resident jobs of equal weight, which is precisely the scheduling
// law the paper observed on the Sun front-ends ("CPU cycles are split
// equally among all the processes running on the Sun with the same
// priority"), and the origin of the slowdown = p+1 rule.
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
	name  string
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

type job struct {
	remaining float64
	weight    float64
	proc      *des.Proc
}

// NewHost returns a PS host with the given speed (work units/second).
func NewHost(k *des.Kernel, name string, speed float64) *Host {
	if speed <= 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("cpu: invalid speed %v", speed))
	}
	return &Host{k: k, name: name, speed: speed}
}

// Name reports the host name.
func (h *Host) Name() string { return h.name }

// Speed reports the dedicated-mode speed in work units per second.
func (h *Host) Speed() float64 { return h.speed }

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

// AvgLoad reports the time-averaged number of resident jobs since t=0.
func (h *Host) AvgLoad() float64 {
	h.advance()
	if now := h.k.Now(); now > 0 {
		return h.loadIntegral / now
	}
	return 0
}

// Completed reports the number of jobs that have finished service.
func (h *Host) Completed() int { return h.completed }

// Compute runs `work` units on the host under processor sharing,
// blocking p until the work completes. Zero work yields once and returns.
func (h *Host) Compute(p *des.Proc, work float64) {
	h.ComputeWeighted(p, work, 1)
}

// ComputeWeighted is Compute with a relative share weight (default 1).
// A job with weight w receives a w/Σw fraction of the processor.
func (h *Host) ComputeWeighted(p *des.Proc, work, weight float64) {
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("cpu: invalid work %v", work))
	}
	if weight <= 0 || math.IsNaN(weight) {
		panic(fmt.Sprintf("cpu: invalid weight %v", weight))
	}
	if work == 0 {
		p.Delay(0)
		return
	}
	h.advance()
	h.jobs = append(h.jobs, job{remaining: work, weight: weight, proc: p})
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
	total := h.totalWeight()
	eff := h.speed / h.PagingFactor()
	for i := range h.jobs {
		j := &h.jobs[i]
		j.remaining -= effDt * eff * j.weight / total
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

// Stalled reports whether the host is currently inside a stall window.
func (h *Host) Stalled() bool { return h.k.Now() < h.stallUntil }

// Stalls reports the number of stall windows injected so far.
func (h *Host) Stalls() int { return h.stalls }

func (h *Host) totalWeight() float64 {
	w := 0.0
	for _, j := range h.jobs {
		w += j.weight
	}
	return w
}

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
	total := h.totalWeight()
	eff := h.speed / h.PagingFactor()
	stallLeft := 0.0
	if h.stallUntil > h.k.Now() {
		stallLeft = h.stallUntil - h.k.Now()
	}
	next := math.Inf(1)
	for _, j := range h.jobs {
		t := j.remaining * total / (eff * j.weight)
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
			if j := &h.jobs[i]; j.remaining*total/(eff*j.weight) <= next {
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
// order. Except self: when the completion happens in the middle of
// self's own ComputeWeighted (run-ahead), self is running, not parked,
// and for its job retireDue only reports true.
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
		if j.proc == self {
			selfDone = true
		} else {
			j.proc.Resume()
		}
	}
	clear(h.done)
	h.done = h.done[:0]
	return selfDone
}
