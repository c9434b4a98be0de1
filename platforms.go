package contention

import (
	"errors"
	"fmt"

	"contention/internal/calibrate"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/sched"
	"contention/internal/workload"
)

// Simulation kernel (see internal/des).
type (
	// Kernel is the deterministic discrete-event simulation core.
	Kernel = des.Kernel
	// Proc is a simulated process on a Kernel.
	Proc = des.Proc
)

// NewKernel returns an empty simulation kernel with the clock at zero.
// Pair it with a deferred Close: a kernel that stops with processes
// still parked holds their coroutines until it is closed.
func NewKernel() *Kernel { return des.New() }

// Simulated platforms (see internal/platform).
type (
	// SunCM2 is the tightly coupled host/SIMD platform.
	SunCM2 = platform.SunCM2
	// SunParagon is the independent host/MPP platform.
	SunParagon = platform.SunParagon
	// CM2Params configures a SunCM2 platform.
	CM2Params = platform.CM2Params
	// ParagonParams configures a SunParagon platform.
	ParagonParams = platform.ParagonParams
	// HopMode selects the Sun/Paragon communication path.
	HopMode = platform.HopMode
)

// OneHop is direct TCP from the Sun to a Paragon compute node.
const OneHop = platform.OneHop

// DefaultCM2Params returns era-plausible Sun/CM2 parameters.
func DefaultCM2Params() CM2Params { return platform.DefaultCM2Params() }

// DefaultParagonParams returns era-plausible Sun/Paragon parameters.
func DefaultParagonParams(mode HopMode) ParagonParams {
	return platform.DefaultParagonParams(mode)
}

// NewSunCM2 builds a Sun/CM2 platform on the kernel.
func NewSunCM2(k *Kernel, p CM2Params) (*SunCM2, error) { return platform.NewSunCM2(k, p) }

// NewSunParagon builds a Sun/Paragon platform on the kernel.
func NewSunParagon(k *Kernel, p ParagonParams) (*SunParagon, error) {
	return platform.NewSunParagon(k, p)
}

// Workloads and contention generators (see internal/workload).
type (
	// AlternatorSpec describes a compute/communicate contender.
	AlternatorSpec = workload.AlternatorSpec
	// WorkloadDirection selects which way a generator's traffic flows.
	WorkloadDirection = workload.Direction
)

// Generator traffic directions.
const (
	// SunToParagon sends from the front-end to the MPP.
	SunToParagon = workload.SunToParagon
	// ParagonToSun receives on the front-end from the MPP.
	ParagonToSun = workload.ParagonToSun
)

// SpawnAlternator starts a compute/communicate contender on sp.
func SpawnAlternator(sp *SunParagon, spec AlternatorSpec) (string, error) {
	return workload.SpawnAlternator(sp, spec)
}

// SpawnCPUHog starts a CPU-bound contender on sp's front-end.
func SpawnCPUHog(sp *SunParagon, name string) { workload.SpawnCPUHog(sp, name) }

// SpawnPingEcho starts the Paragon-side ping-pong echo on a port.
func SpawnPingEcho(sp *SunParagon, port string) { workload.SpawnPingEcho(sp, port) }

// PingPongBurst sends count messages of words each and waits for the
// one-word reply, returning elapsed virtual time. Invalid arguments
// (nil process or platform, count < 1, negative words) return an error
// instead of panicking inside the simulation.
func PingPongBurst(p *Proc, sp *SunParagon, port string, count, words int) (float64, error) {
	if p == nil {
		return 0, errors.New("contention: PingPongBurst with nil process")
	}
	if sp == nil {
		return 0, errors.New("contention: PingPongBurst with nil platform")
	}
	if count < 1 {
		return 0, fmt.Errorf("contention: burst count %d must be ≥ 1", count)
	}
	if words < 0 {
		return 0, fmt.Errorf("contention: negative message size %d", words)
	}
	return workload.PingPongBurst(p, sp, port, count, words), nil
}

// CalibrationOptions controls the Sun/Paragon calibration suite (see
// internal/calibrate).
type CalibrationOptions = calibrate.Options

// DefaultCalibrationOptions returns the options the experiments use.
func DefaultCalibrationOptions(p ParagonParams) CalibrationOptions {
	return calibrate.DefaultOptions(p)
}

// Calibrate runs the full Sun/Paragon suite: α/β fits per direction
// plus the three delay tables.
func Calibrate(opts CalibrationOptions) (Calibration, error) { return calibrate.Run(opts) }

// Allocation scheduler (see internal/sched).
type (
	// Problem is a chain-structured task-allocation problem.
	Problem = sched.Problem
	// Task names one coarse-grained application task.
	Task = sched.Task
	// Machine names one machine of the platform.
	Machine = sched.Machine
	// Edge is a data dependency between consecutive tasks.
	Edge = sched.Edge
	// Route is a directed machine pair for communication costs.
	Route = sched.Route
	// Assignment maps tasks to machines.
	Assignment = sched.Assignment
	// Ranked is a candidate allocation with its predicted makespan.
	Ranked = sched.Ranked
)

// PaperExample returns the paper's §1 allocation problem (Tables 1–2).
func PaperExample() Problem { return sched.PaperExample() }

// NewSunMultiParagon builds n back-end legs sharing one front-end CPU
// and disk — the more-than-two-machines platform.
func NewSunMultiParagon(k *Kernel, p ParagonParams, n int) ([]*SunParagon, error) {
	return platform.NewSunMultiParagon(k, p, n)
}

// Load bridges the contention model and the allocation problem: the
// slowdown factors currently in force on a machine.
type Load = sched.Load
