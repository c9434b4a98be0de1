// Package workload provides the contention generators and synthetic
// benchmarks the paper uses to emulate load on production systems:
// CPU-bound hogs, compute/communicate alternators with a configurable
// communication fraction and message size, burst senders (the Figure
// 4–6 workload), the ping-pong benchmark the calibration suite runs, and
// Measure, the one measured run the calibration probes and the exhibits
// share.
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

// SpawnCPUHog starts a process that computes forever on the platform
// host — the paper's CPU-bound contention generator.
func SpawnCPUHog(sp *platform.SunParagon, name string) {
	sp.K.Spawn(name, func(p *des.Proc) {
		sp.Host.Compute(p, 1e18)
	})
}

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
// The returned port name carries its traffic. A contender is one
// process, on the Sun: the Paragon end is a link.Node, which has no CPU
// to charge and so no processes. Nobody reads what a Sun→Paragon
// contender sends — it exists to load the Sun's CPU and the wire — so
// its Paragon-side port has no handler, the node discards each message
// on arrival and a long run retains nothing per message; and what a
// Paragon→Sun contender receives each cycle the node streams to it
// (link.Node.Stream) the moment it asks.
func SpawnAlternator(sp *platform.SunParagon, spec AlternatorSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	port := "alt:" + spec.Name
	n := MessagesPerCycle(sp, spec)
	computeWork := (1 - spec.CommFraction - spec.IOFraction) * spec.Period
	ioOps, ioWords := IOOpsPerCycle(sp, spec)
	doIO := func(p *des.Proc) {
		for i := 0; i < ioOps; i++ {
			sp.Disk.Op(p, ioWords)
		}
	}

	switch spec.Direction {
	case SunToParagon:
		sp.K.Spawn(spec.Name, func(p *des.Proc) {
			if spec.Phase > 0 {
				p.Delay(spec.Phase)
			}
			for {
				if spec.Stop > 0 && p.Now() >= spec.Stop {
					return
				}
				if computeWork > 0 {
					sp.Host.Compute(p, computeWork)
				}
				doIO(p)
				for i := 0; i < n; i++ {
					sp.SendToParagon(p, port, spec.MsgWords)
				}
				if computeWork == 0 && n == 0 && ioOps == 0 {
					return // degenerate spec: nothing to do
				}
			}
		})
	case ParagonToSun:
		// The Sun-side process computes, then receives a burst the
		// Paragon streams on request. The request itself has zero
		// simulated cost — it stands for the application's own
		// synchronization.
		sp.K.Spawn(spec.Name, func(p *des.Proc) {
			if spec.Phase > 0 {
				p.Delay(spec.Phase)
			}
			for {
				if spec.Stop > 0 && p.Now() >= spec.Stop {
					return
				}
				if computeWork > 0 {
					sp.Host.Compute(p, computeWork)
				}
				doIO(p)
				if n > 0 {
					sp.ParagonEnd.Stream(port, port, n, spec.MsgWords, nil)
					for i := 0; i < n; i++ {
						sp.RecvOnSun(p, port)
					}
				}
				if computeWork == 0 && n == 0 && ioOps == 0 {
					return
				}
			}
		})
	}
	return port, nil
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
// the ideal p+1 law.
func SpawnDutyHogOnHost(k *des.Kernel, host *cpu.Host, name string, duty, period float64, seed int64) {
	if duty <= 0 || duty > 1 || math.IsNaN(duty) {
		panic(fmt.Sprintf("workload: duty %v out of (0,1]", duty))
	}
	if period <= 0 {
		panic(fmt.Sprintf("workload: period %v must be positive", period))
	}
	rng := rand.New(rand.NewSource(seed))
	k.Spawn(name, func(p *des.Proc) {
		for {
			scale := 0.6 + 0.8*rng.Float64() // ±40% cycle jitter
			cycle := period * scale
			host.Compute(p, duty*cycle)
			if idle := (1 - duty) * cycle; idle > 0 {
				p.Delay(idle)
			}
		}
	})
}
