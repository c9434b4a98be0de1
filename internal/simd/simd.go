// Package simd models a CM2-style SIMD back-end. The back-end never
// runs a program on its own: a front-end process feeds it parallel
// instructions through a single sequencer, executing the serial and
// scalar parts of the program itself (on the front-end CPU). Because
// there is only one sequencer, at most one application can use the
// back-end at a time — the paper's reason why all Sun/CM2 contention is
// CPU contention on the Sun.
//
// Instructions are buffered in a bounded FIFO, which lets the front-end
// pre-execute serial code while the back-end works (the overlap visible
// in the paper's Figure 2) and gives rise to the elapsed-time law
// T_cm2 = max(dcomp_cm2 + didle_cm2, dserial_cm2 × slowdown).
package simd

import (
	"fmt"

	"contention/internal/des"
)

// Backend is the SIMD machine: a sequencer plus execution engine.
type Backend struct {
	k         *des.Kernel
	name      string
	sequencer *des.Semaphore

	totalBusy float64
	sessions  int
}

// NewBackend returns an idle back-end.
func NewBackend(k *des.Kernel, name string) *Backend {
	return &Backend{k: k, name: name, sequencer: des.NewSemaphore(k, 1)}
}

// Name reports the back-end name.
func (b *Backend) Name() string { return b.name }

// TotalBusy reports cumulative instruction-execution time across all sessions.
func (b *Backend) TotalBusy() float64 { return b.totalBusy }

// Sessions reports how many sessions have been opened.
func (b *Backend) Sessions() int { return b.sessions }

// Session is one application's exclusive attachment to the sequencer.
type Session struct {
	b       *Backend
	app     string
	fifoCap int
	slots   *des.Semaphore // free FIFO slots

	queue       []float64 // pending instruction durations
	executing   bool
	begin, dur  float64 // of the executing instruction
	outstanding int
	syncWaiters []*des.Proc

	start    float64
	busy     float64
	issued   int
	detached bool

	intervals []Interval
}

// Interval is one contiguous stretch of back-end execution.
type Interval struct {
	Start, End float64
}

// Attach acquires the sequencer for an application, blocking p until the
// back-end is free. fifoCap bounds the number of in-flight instructions
// (≥1); it models the depth of the instruction pipeline between the
// front-end and the back-end.
func (b *Backend) Attach(p *des.Proc, app string, fifoCap int) *Session {
	if fifoCap < 1 {
		panic(fmt.Sprintf("simd: fifo capacity %d must be ≥ 1", fifoCap))
	}
	b.sequencer.Acquire(p)
	b.sessions++
	return &Session{
		b:       b,
		app:     app,
		fifoCap: fifoCap,
		slots:   des.NewSemaphore(b.k, fifoCap),
		start:   p.Now(),
	}
}

// Issue sends one parallel instruction with the given dedicated-mode
// execution duration to the back-end. It blocks p only when the
// instruction FIFO is full.
func (s *Session) Issue(p *des.Proc, dur float64) {
	if s.detached {
		panic("simd: Issue after Detach")
	}
	if dur < 0 {
		panic(fmt.Sprintf("simd: negative instruction duration %v", dur))
	}
	s.slots.Acquire(p) // back-pressure when the FIFO is full
	s.queue = append(s.queue, dur)
	s.outstanding++
	s.issued++
	s.startNext()
}

// startNext begins executing the head instruction if the engine is idle.
func (s *Session) startNext() {
	if s.executing || len(s.queue) == 0 {
		return
	}
	s.executing = true
	s.begin, s.dur = s.b.k.Now(), s.queue[0]
	s.queue = s.queue[:copy(s.queue, s.queue[1:])] // ≤ fifoCap entries; keeps the array
	s.b.k.Call(s.dur, (*retirement)(s))
}

// retirement is the session seen as the completion of its executing
// instruction: the engine runs one at a time, so the session itself
// carries the callback's state and Fire stays off Session's API.
type retirement Session

// Fire implements des.Action.
func (r *retirement) Fire() {
	s := (*Session)(r)
	s.intervals = append(s.intervals, Interval{Start: s.begin, End: s.begin + s.dur})
	s.busy += s.dur
	s.b.totalBusy += s.dur
	s.executing = false
	s.outstanding--
	s.slots.Release()
	if s.outstanding == 0 {
		for _, w := range s.syncWaiters {
			w.Resume()
		}
		clear(s.syncWaiters)
		s.syncWaiters = s.syncWaiters[:0]
	}
	s.startNext()
}

// Sync blocks p until every issued instruction has completed — the
// front-end waiting for a result (e.g. a reduction) in Figure 2.
func (s *Session) Sync(p *des.Proc) {
	if s.outstanding == 0 {
		return
	}
	s.syncWaiters = append(s.syncWaiters, p)
	p.Park()
}

// Detach synchronizes, releases the sequencer, and freezes the session
// statistics. The session must not be used afterwards.
func (s *Session) Detach(p *des.Proc) {
	if s.detached {
		return
	}
	s.Sync(p)
	s.detached = true
	s.b.sequencer.Release()
}

// BusyTime reports time spent executing instructions in this session.
func (s *Session) BusyTime() float64 { return s.busy }

// IdleTime reports back-end idle time within the session so far: elapsed
// session time minus execution time. After Detach it is the paper's
// didle_cm2 for a dedicated run.
func (s *Session) IdleTime(now float64) float64 {
	idle := (now - s.start) - s.busy
	if idle < 0 {
		return 0
	}
	return idle
}

// Issued reports the number of instructions issued in this session.
func (s *Session) Issued() int { return s.issued }

// Outstanding reports instructions issued but not yet completed.
func (s *Session) Outstanding() int { return s.outstanding }

// Intervals returns the back-end execution intervals recorded so far —
// the raw material of the paper's Figure 2 timeline.
func (s *Session) Intervals() []Interval {
	return append([]Interval(nil), s.intervals...)
}
