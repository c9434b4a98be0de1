package contention

import (
	"contention/internal/core"
	"contention/internal/faults"
	"contention/internal/monitor"
	"contention/internal/rm"
)

// Run-time infrastructure around the model: the resource manager the
// paper assumes supplies the application set (§2), and a load monitor
// that estimates workload parameters from observation when no
// descriptors are available.
type (
	// ResourceManager admits applications, queues MPP partition
	// requests, and keeps the running contender set the slowdowns are
	// evaluated over.
	ResourceManager = rm.Manager
	// ResourceManagerConfig configures a ResourceManager.
	ResourceManagerConfig = rm.Config
	// AppDescriptor registers one application with the manager.
	AppDescriptor = rm.AppDescriptor
	// RunningApp is an admitted application.
	RunningApp = rm.Running
	// Monitor samples a platform and estimates workload parameters.
	Monitor = monitor.Monitor
	// MonitorSample is one reading of the platform counters.
	MonitorSample = monitor.Sample
	// WorkloadEstimate summarizes an observation window.
	WorkloadEstimate = monitor.Estimate
)

// NewResourceManager builds a resource manager.
func NewResourceManager(k *Kernel, cfg ResourceManagerConfig) (*ResourceManager, error) {
	return rm.New(k, cfg)
}

// NewMonitor creates a load monitor sampling sp every interval seconds.
func NewMonitor(sp *SunParagon, interval float64, maxKeep int) (*Monitor, error) {
	return monitor.New(sp, interval, maxKeep)
}

// Admission-control sentinels (see internal/rm).
var (
	// ErrQueueFull is returned when the bounded admission queue is at
	// capacity.
	ErrQueueFull = rm.ErrQueueFull
	// ErrSubmitTimeout is returned when a queued partition request is
	// not granted within the configured submit timeout.
	ErrSubmitTimeout = rm.ErrSubmitTimeout
)

// --- Fault injection and graceful degradation -------------------------------

// Deterministic seeded fault injection for the simulated platform (see
// internal/faults): composable schedules for transient link faults,
// host stalls and crash-restart windows, contender churn, and monitor
// sample loss, all reproducible for a fixed seed.
type (
	// FaultInjector owns the seeded RNG and arms fault schedules.
	FaultInjector = faults.Injector
	// Fault is one composable fault schedule.
	Fault = faults.Fault
	// FaultWindow bounds a fault schedule in virtual time.
	FaultWindow = faults.Window
	// InjectedFault is one fault event that actually fired.
	InjectedFault = faults.Injected
	// LinkFaults drops or corrupts transmission attempts on a DES link.
	LinkFaults = faults.LinkFaults
	// HostStalls freezes the processor-sharing host at Poisson arrivals.
	HostStalls = faults.HostStalls
	// CrashRestart models fail-stop crashes with a fixed restart time.
	CrashRestart = faults.CrashRestart
	// ContenderChurn perturbs the job mix behind the model's back.
	ContenderChurn = faults.ContenderChurn
	// SampleLoss drops monitor samples on a lossy telemetry path.
	SampleLoss = faults.SampleLoss
)

// NewFaultInjector returns an injector bound to k with a fixed seed.
func NewFaultInjector(k *Kernel, seed int64) *FaultInjector {
	return faults.NewInjector(k, seed)
}

// Prediction is a cost prediction carrying degradation metadata: when
// the calibration cannot support the mixture model, Value holds the
// conservative p+1 worst case, Degraded is set, and Reason says why.
type Prediction = core.Prediction

// NewPredictorLenient accepts a possibly incomplete calibration without
// error; the Robust prediction methods degrade to the p+1 worst case
// instead of failing.
func NewPredictorLenient(cal Calibration) *Predictor {
	return core.NewPredictorLenient(cal)
}

// WorstCaseSlowdown is the conservative degraded-mode fallback: p+1 for
// p contenders.
func WorstCaseSlowdown(cs []Contender) float64 { return core.WorstCaseSlowdown(cs) }
