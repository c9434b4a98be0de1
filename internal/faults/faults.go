// Package faults is the deterministic, seeded fault-injection subsystem
// for the simulated platform. The paper's model assumes a cooperative
// world — complete calibration tables, accurate contender descriptors, a
// wire that never misbehaves — and §4 itself warns that real systems
// drift ("slowdown factors should be recalculated when the job mix
// changes"). Injected perturbations are how a first-principles
// performance model is shown to degrade gracefully rather than collapse:
// this package composes fault schedules — transient link faults with
// paced retransmit, host stalls and crash-restart downtime on the
// processor-sharing CPU, contender churn, monitor sample loss — all
// driven by the DES kernel from one seeded RNG, so a faulty run is
// exactly as reproducible as a clean one.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"contention/internal/cpu"
	"contention/internal/des"
	"contention/internal/link"
	"contention/internal/monitor"
	"contention/internal/obs"
)

// mInjected counts fired fault events by kind, the telemetry twin of
// the injector's own log.
var mInjected = obs.NewCounterVec(obs.MetricFaultsInjected,
	"fault events fired by the injector, by kind", "kind")

// Injected is one fault event the injector actually fired, kept for
// diagnostics and reproducibility checks.
type Injected struct {
	At   float64
	Kind string
	Info string
}

// Injector owns the seeded RNG and arms fault schedules on a kernel.
// All draws happen in kernel-serialized context (event callbacks and
// sender processes), so for a fixed seed the whole perturbed simulation
// is deterministic.
type Injector struct {
	k   *des.Kernel
	rng *rand.Rand
	log []Injected
}

// NewInjector returns an injector bound to k with a fixed seed.
func NewInjector(k *des.Kernel, seed int64) *Injector {
	return &Injector{k: k, rng: rand.New(rand.NewSource(seed))}
}

// Count reports how many fault events of the given kind fired ("" = all).
func (in *Injector) Count(kind string) int {
	n := 0
	for _, e := range in.log {
		if kind == "" || e.Kind == kind {
			n++
		}
	}
	return n
}

func (in *Injector) note(kind, format string, args ...any) {
	mInjected.With(kind).Inc()
	in.log = append(in.log, Injected{At: in.k.Now(), Kind: kind, Info: fmt.Sprintf(format, args...)})
}

// exp draws an exponential inter-arrival time with the given mean.
func (in *Injector) exp(mean float64) float64 {
	return in.rng.ExpFloat64() * mean
}

// Fault is one composable fault schedule. Arm installs it on the
// injector's kernel; the fault then drives itself from DES events.
type Fault interface {
	Arm(in *Injector) error
}

// Arm validates and installs each fault in order.
func (in *Injector) Arm(fs ...Fault) error {
	for _, f := range fs {
		if err := f.Arm(in); err != nil {
			return err
		}
	}
	return nil
}

// poisson schedules fn at Poisson arrivals with the given mean spacing
// from now on. fn fires in kernel event context.
func (in *Injector) poisson(mean float64, fn func()) {
	var next func()
	next = func() {
		in.k.After(in.exp(mean), func() {
			fn()
			next()
		})
	}
	in.k.After(0, next)
}

// LinkFaults injects transient wire faults on a DES link: each
// transmission attempt is independently dropped with DropProb or
// corrupted with CorruptProb. Either way the attempt is lost — the
// sender pays full wire occupancy and retransmits after a paced,
// doubling backoff (see link.Link).
type LinkFaults struct {
	Link        *link.Link
	DropProb    float64
	CorruptProb float64
}

// Arm installs the fault decision on the link.
func (f LinkFaults) Arm(in *Injector) error {
	if f.Link == nil {
		return fmt.Errorf("faults: LinkFaults with nil link")
	}
	for _, p := range []float64{f.DropProb, f.CorruptProb} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("faults: link fault probability %v out of [0,1]", p)
		}
	}
	if f.DropProb+f.CorruptProb > 1 {
		return fmt.Errorf("faults: drop %v + corrupt %v probabilities exceed 1", f.DropProb, f.CorruptProb)
	}
	f.Link.SetFaultFunc(func(words int) bool {
		u := in.rng.Float64()
		switch {
		case u < f.DropProb:
			in.note("link-drop", "%d-word attempt dropped", words)
			return true
		case u < f.DropProb+f.CorruptProb:
			in.note("link-corrupt", "%d-word attempt corrupted", words)
			return true
		}
		return false
	})
	return nil
}

// HostStalls freezes the processor-sharing host for exponentially
// distributed windows at Poisson arrivals — scheduler hiccups, paging
// storms, interrupt bursts.
type HostStalls struct {
	Host *cpu.Host
	// MeanSpacing is the mean time between stall onsets.
	MeanSpacing float64
	// MeanDuration is the mean stall length.
	MeanDuration float64
}

// Arm schedules the stall process.
func (f HostStalls) Arm(in *Injector) error {
	if f.Host == nil {
		return fmt.Errorf("faults: HostStalls with nil host")
	}
	if f.MeanSpacing <= 0 || math.IsNaN(f.MeanSpacing) {
		return fmt.Errorf("faults: stall spacing %v must be positive", f.MeanSpacing)
	}
	if f.MeanDuration <= 0 || math.IsNaN(f.MeanDuration) {
		return fmt.Errorf("faults: stall duration %v must be positive", f.MeanDuration)
	}
	in.poisson(f.MeanSpacing, func() {
		d := in.exp(f.MeanDuration)
		in.note("host-stall", "stall %.4gs", d)
		f.Host.Stall(d)
	})
	return nil
}

// CrashRestart models fail-stop crashes of the front-end with a fixed
// restart time: at Poisson arrivals (mean MTBF) the host freezes for
// Downtime, then resumes resident jobs from their checkpointed progress.
type CrashRestart struct {
	Host     *cpu.Host
	MTBF     float64
	Downtime float64
}

// Arm schedules the crash process.
func (f CrashRestart) Arm(in *Injector) error {
	if f.Host == nil {
		return fmt.Errorf("faults: CrashRestart with nil host")
	}
	if f.MTBF <= 0 || math.IsNaN(f.MTBF) {
		return fmt.Errorf("faults: MTBF %v must be positive", f.MTBF)
	}
	if f.Downtime <= 0 || math.IsNaN(f.Downtime) {
		return fmt.Errorf("faults: downtime %v must be positive", f.Downtime)
	}
	in.poisson(f.MTBF, func() {
		in.note("crash-restart", "down %.4gs", f.Downtime)
		f.Host.Stall(f.Downtime)
	})
	return nil
}

// ContenderChurn perturbs the job mix at Poisson arrivals: each event
// calls Perturb, which typically spawns a transient contender (or flips
// one in a registry). The model under test is never told — that is the
// point.
type ContenderChurn struct {
	// MeanSpacing is the mean time between churn events.
	MeanSpacing float64
	// Perturb is invoked in kernel event context at each churn arrival.
	Perturb func()
}

// Arm schedules the churn process.
func (f ContenderChurn) Arm(in *Injector) error {
	if f.Perturb == nil {
		return fmt.Errorf("faults: ContenderChurn with nil Perturb")
	}
	if f.MeanSpacing <= 0 || math.IsNaN(f.MeanSpacing) {
		return fmt.Errorf("faults: churn spacing %v must be positive", f.MeanSpacing)
	}
	in.poisson(f.MeanSpacing, func() {
		in.note("churn", "job mix perturbed")
		f.Perturb()
	})
	return nil
}

// SampleLoss drops monitor samples independently with DropProb,
// modeling a lossy telemetry path between the platform and the resource
// manager.
type SampleLoss struct {
	Monitor  *monitor.Monitor
	DropProb float64
}

// Arm installs the loss decision on the monitor.
func (f SampleLoss) Arm(in *Injector) error {
	if f.Monitor == nil {
		return fmt.Errorf("faults: SampleLoss with nil monitor")
	}
	if f.DropProb < 0 || f.DropProb > 1 || math.IsNaN(f.DropProb) {
		return fmt.Errorf("faults: sample loss probability %v out of [0,1]", f.DropProb)
	}
	f.Monitor.SetLossFunc(func() bool {
		if in.rng.Float64() < f.DropProb {
			in.note("sample-loss", "monitor sample dropped")
			return true
		}
		return false
	})
	return nil
}
