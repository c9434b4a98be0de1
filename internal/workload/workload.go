// Package workload provides the contention generators and synthetic
// benchmarks the paper uses to emulate load on production systems:
// CPU-bound hogs, compute/communicate alternators with a configurable
// communication fraction and message size, burst senders (the Figure
// 4–6 workload), the ping-pong benchmark the calibration suite runs, and
// Measure, the one measured run the calibration probes and the exhibits
// share. What is measured is a process; a contention generator is load,
// and is a des.Action that takes, event for event, the turns a process
// looping over its cycle would, so a contended run switches into no
// coroutine but the measured one.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"contention/internal/cpu"
	"contention/internal/des"
	"contention/internal/link"
	"contention/internal/platform"
)

// Direction of a generator's transfers relative to the front-end.
type Direction int

const (
	// SunToParagon sends from the front-end to the MPP.
	SunToParagon Direction = iota
	// ParagonToSun receives on the front-end from the MPP.
	ParagonToSun
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case SunToParagon:
		return "sun→paragon"
	case ParagonToSun:
		return "paragon→sun"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// SpawnCPUHog starts a contender that computes forever on the platform
// host — the paper's CPU-bound contention generator. It is
// sp.SpawnCPUHogs(1): name labels the hog at the call site only.
func SpawnCPUHog(sp *platform.SunParagon, name string) { sp.SpawnCPUHogs(1) }

// AlternatorSpec describes one compute/communicate contender on the Sun.
type AlternatorSpec struct {
	Name string
	// CommFraction is the fraction of each dedicated-mode cycle spent
	// communicating with the Paragon; the rest is CPU-bound computation.
	CommFraction float64
	// MsgWords is the message size the contender transfers.
	MsgWords int
	// Period is the dedicated-mode cycle duration in seconds.
	Period float64
	// Phase delays the first cycle, staggering contenders.
	Phase float64
	// Direction selects which way the contender's messages flow.
	Direction Direction
	// IOFraction is the fraction of each dedicated-mode cycle spent
	// blocked on local disk I/O (the load-characteristics extension);
	// computation takes the remaining 1 - CommFraction - IOFraction.
	IOFraction float64
	// IOWords is the size of each disk operation (defaults to 4096).
	IOWords int
	// Stop, when positive, ends the contender at that virtual time
	// (checked at cycle boundaries) — the dynamic job-mix setting of
	// the phased-prediction extension.
	Stop float64
}

// Validate checks the spec.
func (s AlternatorSpec) Validate() error {
	if s.CommFraction < 0 || s.CommFraction > 1 || math.IsNaN(s.CommFraction) {
		return fmt.Errorf("workload: comm fraction %v out of [0,1]", s.CommFraction)
	}
	if s.MsgWords <= 0 {
		return fmt.Errorf("workload: message size %d must be positive", s.MsgWords)
	}
	if s.Period <= 0 {
		return fmt.Errorf("workload: period %v must be positive", s.Period)
	}
	if s.Phase < 0 {
		return fmt.Errorf("workload: phase %v must be non-negative", s.Phase)
	}
	if s.IOFraction < 0 || s.IOFraction > 1 || math.IsNaN(s.IOFraction) {
		return fmt.Errorf("workload: I/O fraction %v out of [0,1]", s.IOFraction)
	}
	if s.CommFraction+s.IOFraction > 1 {
		return fmt.Errorf("workload: comm %v + I/O %v fractions exceed 1", s.CommFraction, s.IOFraction)
	}
	if s.IOWords < 0 {
		return fmt.Errorf("workload: negative I/O size %d", s.IOWords)
	}
	if s.Stop < 0 {
		return fmt.Errorf("workload: negative stop time %v", s.Stop)
	}
	if s.Stop > 0 && s.Stop <= s.Phase {
		return fmt.Errorf("workload: stop %v not after phase %v", s.Stop, s.Phase)
	}
	if s.Direction != SunToParagon && s.Direction != ParagonToSun {
		return fmt.Errorf("workload: unknown direction %d", int(s.Direction))
	}
	return nil
}

// dedicatedMsgTime estimates the dedicated-mode cost of one contender
// message as seen from the Sun (conversion + wire).
func dedicatedMsgTime(sp *platform.SunParagon, words int, dir Direction) float64 {
	wire := sp.Link.WireTime(words)
	if dir == SunToParagon {
		return sp.Params.SendStartup + sp.Params.SendPerWord*float64(words) + wire
	}
	return sp.Params.RecvStartup + sp.Params.RecvPerWord*float64(words) + wire
}

// MessagesPerCycle returns the number of messages an alternator sends
// each cycle so that its dedicated-mode communication fraction matches
// the spec (at least one).
func MessagesPerCycle(sp *platform.SunParagon, spec AlternatorSpec) int {
	if spec.CommFraction == 0 {
		return 0
	}
	budget := spec.CommFraction * spec.Period
	per := dedicatedMsgTime(sp, spec.MsgWords, spec.Direction)
	n := int(math.Round(budget / per))
	if n < 1 {
		n = 1
	}
	return n
}

// SpawnAlternator starts a contender that alternates computation with
// communication per the spec, running until the simulation horizon.
// The returned port name carries its traffic.
//
// A contender is load, not a measurement, so it is not a process: it is
// one des.Action that takes, event for event, the steps a process
// looping over the cycle would — its start one zero-delay call from now,
// where a spawned process's first wake would stand, the phase a timed
// call where Delay queued a wake, the computation a
// cpu.Host.ComputeAsync job, each disk operation a disk.Disk.OpAsync, a
// Sun→Paragon cycle's messages one link.Endpoint.Stream and a
// Paragon→Sun cycle's one link.Node.Stream that the Sun drains
// (link.Endpoint.Drain) — and each step begins in the event that ended
// the one before. Nobody reads what a Sun→Paragon contender sends, so
// its Paragon-side port has no handler and the node discards each
// message on arrival; a long run retains nothing per message either way.
// TestContenderMatchesProcessLoop holds the contender against that
// process, == on every clock and counter.
func SpawnAlternator(sp *platform.SunParagon, spec AlternatorSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	a := &alternator{
		sp:          sp,
		spec:        spec,
		port:        "alt:" + spec.Name,
		msgs:        MessagesPerCycle(sp, spec),
		computeWork: (1 - spec.CommFraction - spec.IOFraction) * spec.Period,
	}
	a.ioOps, a.ioWords = IOOpsPerCycle(sp, spec)
	sp.K.Call(0, a)
	return a.port, nil
}

// alternator is one running contender (SpawnAlternator); step names
// what the next Fire means.
type alternator struct {
	sp          *platform.SunParagon
	spec        AlternatorSpec
	port        string
	msgs        int     // messages per cycle
	computeWork float64 // work per cycle
	ioOps       int     // disk operations per cycle
	ioWords     int
	ioLeft      int // disk operations still to start this cycle
	step        altStep
}

type altStep uint8

const (
	altStart altStep = iota // the contender's start: wait out the phase
	altCycle                // begin a cycle
	altDone                 // the computation or the disk operation in flight is done
)

// Fire implements des.Action.
func (a *alternator) Fire() {
	switch a.step {
	case altStart:
		a.step = altCycle
		if a.spec.Phase > 0 {
			a.sp.K.Call(a.spec.Phase, a)
			return
		}
		a.cycle()
	case altCycle:
		a.cycle()
	case altDone:
		a.io()
	}
}

// cycle begins a cycle, unless the contender's time is up.
func (a *alternator) cycle() {
	if a.spec.Stop > 0 && a.sp.K.Now() >= a.spec.Stop {
		return
	}
	a.ioLeft = a.ioOps
	if a.computeWork > 0 {
		a.step = altDone
		a.sp.Host.ComputeAsync(a.computeWork, a)
		return
	}
	if a.msgs == 0 && a.ioOps == 0 {
		return // degenerate spec: nothing to do
	}
	a.io()
}

// io starts the cycle's next disk operation, or communicates once they
// are all done; the next cycle begins in the event that ends the
// communication.
func (a *alternator) io() {
	if a.ioLeft > 0 {
		a.ioLeft--
		a.step = altDone
		a.sp.Disk.OpAsync(a.ioWords, a)
		return
	}
	a.step = altCycle
	switch {
	case a.msgs == 0:
		a.cycle()
	case a.spec.Direction == SunToParagon:
		a.sp.SunEnd.Stream(a.port, a.port, a.msgs, a.spec.MsgWords, a)
	default:
		// The Paragon streams the burst on request; the request itself
		// has zero simulated cost — it stands for the application's own
		// synchronization.
		a.sp.ParagonEnd.Stream(a.port, a.port, a.msgs, a.spec.MsgWords, nil)
		a.sp.SunEnd.Drain(a.port, a.msgs, a)
	}
}

// IOOpsPerCycle returns the per-cycle disk operation count and size so
// that the alternator's dedicated-mode I/O fraction matches the spec.
func IOOpsPerCycle(sp *platform.SunParagon, spec AlternatorSpec) (ops, words int) {
	if spec.IOFraction == 0 {
		return 0, 0
	}
	words = spec.IOWords
	if words == 0 {
		words = 4096
	}
	budget := spec.IOFraction * spec.Period
	per := sp.Disk.OpTime(words) + sp.Params.Disk.CPUPerOp
	ops = int(math.Round(budget / per))
	if ops < 1 {
		ops = 1
	}
	return ops, words
}

// BurstFromParagon has the Paragon node stream a count×words burst to
// the Sun and receives it on port in p, which pays the conversion,
// returning elapsed virtual time (the Figure 6 measurement).
func BurstFromParagon(p *des.Proc, sp *platform.SunParagon, port string, count, words int) float64 {
	start := p.Now()
	sp.ParagonEnd.Stream(port, port, count, words, nil)
	for i := 0; i < count; i++ {
		sp.RecvOnSun(p, port)
	}
	return p.Now() - start
}

// pingEnd marks the final message of a ping burst.
type pingEnd struct{}

// SpawnPingEcho starts the Paragon-side echo: whenever the end-marker
// arrives on port, it replies with a one-word message (the paper's
// ping-pong benchmark protocol: a burst of same-size messages, then one
// word back). The echo is the node's arrival handler for the port, not
// a process: the burst's other messages cost the Paragon nothing (it has
// no host CPU to charge) and are dropped where they land, and on the
// marker the reply is streamed back (link.Node.Stream) — its zero-delay
// start standing at the point of the event sequence where a parked
// receiver's wake would have been.
func SpawnPingEcho(sp *platform.SunParagon, port string) {
	sp.ParagonEnd.Handle(port, func(msg link.Message) {
		if _, ok := msg.Payload.(pingEnd); ok {
			sp.ParagonEnd.Stream(port, port, 1, 1, nil)
		}
	})
}

// PingPongBurst sends count messages of words each and waits for the
// one-word reply, returning elapsed time. SpawnPingEcho must be running
// on the port.
func PingPongBurst(p *des.Proc, sp *platform.SunParagon, port string, count, words int) float64 {
	if count < 1 {
		panic(fmt.Sprintf("workload: burst count %d must be ≥ 1", count))
	}
	start := p.Now()
	for i := 0; i < count-1; i++ {
		sp.SunEnd.Send(p, port, port, words, nil)
	}
	sp.SunEnd.Send(p, port, port, words, pingEnd{})
	sp.RecvOnSun(p, port)
	return p.Now() - start
}

// Burst measures one burst of count words-word messages on port, from
// the measured process p, and returns its elapsed virtual time:
// Sun→Paragon it installs the echo (SpawnPingEcho, which schedules
// nothing) and runs the ping-pong benchmark (PingPongBurst); Paragon→Sun
// it has the back-end stream the burst to the Sun (BurstFromParagon) —
// the Figure 5 and 6 measurements and the calibration's burst probes.
func Burst(p *des.Proc, sp *platform.SunParagon, dir Direction, port string, count, words int) float64 {
	switch dir {
	case SunToParagon:
		SpawnPingEcho(sp, port)
		return PingPongBurst(p, sp, port, count, words)
	case ParagonToSun:
		return BurstFromParagon(p, sp, port, count, words)
	}
	panic(fmt.Sprintf("workload: unknown direction %d", int(dir)))
}

// Measure is one measured run on k, whose platform and contenders the
// caller has installed: it spawns process name, which waits warmup
// virtual seconds when warmup is positive (a zero warm-up schedules
// nothing) and then runs body; once body returns it stops the kernel —
// contenders run forever, so the measurement ends the run. It returns
// body's value, or an error naming the run when the kernel drained
// before body returned.
func Measure[T any](k *des.Kernel, name string, warmup float64, body func(p *des.Proc) T) (T, error) {
	var run struct {
		v    T
		done bool
	}
	k.Spawn(name, func(p *des.Proc) {
		if warmup > 0 {
			p.Delay(warmup)
		}
		run.v, run.done = body(p), true
		k.Stop()
	})
	k.Run()
	if !run.done {
		return run.v, fmt.Errorf("workload: run %q did not finish", name)
	}
	return run.v, nil
}

// SpawnDutyHogOnHost starts a nearly-CPU-bound contender directly on a
// host: each cycle it computes duty×period of work and idles the rest,
// with deterministic pseudo-random jitter on the cycle length. Real
// "CPU-bound" applications take such micro-pauses (page faults, brief
// I/O), which is one source of the paper's measurement error against
// the ideal p+1 law. Like an alternator, the hog is a des.Action, not a
// process: its start is a zero-delay call, its computation a
// cpu.Host.ComputeAsync job and its idle time a timed call. name labels
// the hog at the call site only.
func SpawnDutyHogOnHost(k *des.Kernel, host *cpu.Host, name string, duty, period float64, seed int64) {
	if duty <= 0 || duty > 1 || math.IsNaN(duty) {
		panic(fmt.Sprintf("workload: duty %v out of (0,1]", duty))
	}
	if period <= 0 {
		panic(fmt.Sprintf("workload: period %v must be positive", period))
	}
	k.Call(0, &dutyHog{k: k, host: host, duty: duty, period: period, rng: rand.New(rand.NewSource(seed))})
}

// dutyHog is one running SpawnDutyHogOnHost contender.
type dutyHog struct {
	k            *des.Kernel
	host         *cpu.Host
	duty, period float64
	rng          *rand.Rand
	idle         float64 // idle time after the computation in flight
	computing    bool    // Fire means the cycle's computation is done
}

// Fire implements des.Action.
func (h *dutyHog) Fire() {
	if h.computing {
		h.computing = false
		if h.idle > 0 {
			h.k.Call(h.idle, h)
			return
		}
	}
	scale := 0.6 + 0.8*h.rng.Float64() // ±40% cycle jitter
	cycle := h.period * scale
	h.idle, h.computing = (1-h.duty)*cycle, true
	h.host.ComputeAsync(h.duty*cycle, h)
}
