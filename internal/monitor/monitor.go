// Package monitor estimates the model's application-dependent workload
// parameters from run-time observation of the platform, in the spirit
// of the Network Weather Service line of work the paper sits alongside
// (§2: the parameters "are determined at run time [and] should be easy
// to obtain or calculate"; they "may be provided by the users or
// obtained from the resource management system"). When neither users
// nor the resource manager supply descriptors, a monitor can observe
// CPU residency and wire occupancy and synthesize an equivalent
// contender set for the slowdown formulas.
package monitor

import (
	"errors"
	"fmt"
	"math"

	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/obs"
	"contention/internal/platform"
)

// Sampling-path telemetry: the gap-tolerance (loss) and non-finite
// sample paths used to swallow their casualties silently; now every
// sample that does not land in the window is counted as dropped or
// rejected.
var (
	mDropped = obs.NewCounter(obs.MetricMonitorDropped,
		"platform samples discarded by the installed loss function")
	mRejected = obs.NewCounter(obs.MetricMonitorRejected,
		"non-finite platform samples rejected during estimation")
)

// Sample is one reading of the platform's cumulative counters.
type Sample struct {
	At           float64
	HostBusy     float64
	HostLoadInt  float64
	LinkBusy     float64
	LinkMessages int
	LinkWords    int
}

// Monitor periodically samples a Sun/Paragon platform.
type Monitor struct {
	sp       *platform.SunParagon
	interval float64
	samples  []Sample
	maxKeep  int

	loss     func() bool
	dropped  int
	rejected int
}

// New creates a monitor sampling every interval seconds, keeping at
// most maxKeep samples (older ones are dropped).
func New(sp *platform.SunParagon, interval float64, maxKeep int) (*Monitor, error) {
	if interval <= 0 || math.IsNaN(interval) {
		return nil, fmt.Errorf("monitor: interval %v must be positive", interval)
	}
	if maxKeep < 2 {
		return nil, fmt.Errorf("monitor: maxKeep %d must be ≥ 2", maxKeep)
	}
	return &Monitor{sp: sp, interval: interval, maxKeep: maxKeep}, nil
}

// Start spawns the sampling process; it runs until the simulation ends.
func (m *Monitor) Start() {
	m.record() // t=0 baseline
	m.sp.K.Spawn("monitor", func(p *des.Proc) {
		for {
			p.Delay(m.interval)
			m.record()
		}
	})
}

// SetLossFunc installs a sample-loss decision: when f returns true the
// scheduled sample is discarded, leaving a gap in the window. Because the
// counters are cumulative, estimates over gappy windows stay exact for
// utilizations and averages — the monitor degrades, it does not lie.
// Installed by the fault-injection subsystem; nil means lossless.
func (m *Monitor) SetLossFunc(f func() bool) { m.loss = f }

// Dropped reports the number of samples lost to the loss function.
func (m *Monitor) Dropped() int { return m.dropped }

// Rejected reports the number of non-finite samples rejected during
// estimation (each rejection also surfaced as ErrNonFiniteSample).
func (m *Monitor) Rejected() int { return m.rejected }

// record takes one sample immediately.
func (m *Monitor) record() {
	if m.loss != nil && m.loss() {
		m.dropped++
		mDropped.Inc()
		return
	}
	s := Sample{
		At:           m.sp.K.Now(),
		HostBusy:     m.sp.Host.BusyTime(),
		HostLoadInt:  m.sp.Host.LoadIntegral(),
		LinkBusy:     m.sp.Link.BusyTime(),
		LinkMessages: m.sp.Link.Messages(),
		LinkWords:    m.sp.Link.WordsMoved(),
	}
	m.samples = append(m.samples, s)
	if len(m.samples) > m.maxKeep {
		m.samples = m.samples[len(m.samples)-m.maxKeep:]
	}
}

// Samples returns a copy of the retained samples.
func (m *Monitor) Samples() []Sample {
	return append([]Sample(nil), m.samples...)
}

// Estimate summarizes the workload over an observation window.
type Estimate struct {
	// Window is the covered time span.
	Window float64
	// HostUtilization is the CPU busy fraction.
	HostUtilization float64
	// AvgHostJobs is the time-averaged number of CPU-resident jobs.
	AvgHostJobs float64
	// LinkUtilization is the wire busy fraction.
	LinkUtilization float64
	// MeanMsgWords is the average observed message size.
	MeanMsgWords int
	// MessageRate is messages per second on the wire.
	MessageRate float64
	// Apps is the estimated number of active applications.
	Apps int
	// CommFraction is the estimated per-application communication
	// fraction, assuming a homogeneous population.
	CommFraction float64
}

// ErrInsufficientData is returned when fewer than two samples cover the
// requested window.
var ErrInsufficientData = errors.New("monitor: insufficient samples")

// ErrInvalidWindow is returned for a non-positive or NaN window.
var ErrInvalidWindow = errors.New("monitor: invalid window")

// ErrNonFiniteSample is returned when a sample inside the estimation
// window carries a NaN or infinite counter — a corrupted reading must
// surface as an error, not as NaN silently propagating into slowdowns.
var ErrNonFiniteSample = errors.New("monitor: non-finite sample counter")

// check reports which counter of the sample, if any, is not finite.
func (s Sample) check() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"At", s.At},
		{"HostBusy", s.HostBusy},
		{"HostLoadInt", s.HostLoadInt},
		{"LinkBusy", s.LinkBusy},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("%w: %s = %v at t=%v", ErrNonFiniteSample, c.name, c.v, s.At)
		}
	}
	return nil
}

// EstimateWindow derives workload estimates from the samples within the
// last `window` seconds. A window longer than the retained history falls
// back to the oldest retained sample; gaps from dropped samples are
// harmless because the counters are cumulative.
func (m *Monitor) EstimateWindow(window float64) (Estimate, error) {
	if window <= 0 || math.IsNaN(window) {
		return Estimate{}, fmt.Errorf("%w: %v", ErrInvalidWindow, window)
	}
	if len(m.samples) < 2 {
		return Estimate{}, ErrInsufficientData
	}
	last := m.samples[len(m.samples)-1]
	cutoff := last.At - window
	first := m.samples[0]
	for _, s := range m.samples {
		if s.At >= cutoff {
			first = s
			break
		}
	}
	if err := first.check(); err != nil {
		m.rejected++
		mRejected.Inc()
		return Estimate{}, err
	}
	if err := last.check(); err != nil {
		m.rejected++
		mRejected.Inc()
		return Estimate{}, err
	}
	dt := last.At - first.At
	if dt <= 0 {
		return Estimate{}, ErrInsufficientData
	}
	est := Estimate{Window: dt}
	est.HostUtilization = clamp01((last.HostBusy - first.HostBusy) / dt)
	est.AvgHostJobs = (last.HostLoadInt - first.HostLoadInt) / dt
	est.LinkUtilization = clamp01((last.LinkBusy - first.LinkBusy) / dt)
	msgs := last.LinkMessages - first.LinkMessages
	words := last.LinkWords - first.LinkWords
	if msgs > 0 {
		est.MeanMsgWords = words / msgs
		est.MessageRate = float64(msgs) / dt
	}
	// An application is either CPU-resident or on the wire; the sum of
	// the two occupancies estimates the active population.
	active := est.AvgHostJobs + est.LinkUtilization
	est.Apps = int(math.Round(active))
	if est.Apps < 0 {
		est.Apps = 0
	}
	if active > 0 {
		est.CommFraction = clamp01(est.LinkUtilization / active)
	}
	return est, nil
}

// Contenders synthesizes an equivalent homogeneous contender set from
// the estimate, excluding the observer's own activity by subtracting
// selfJobs CPU-resident applications (pass 0 when observing from
// outside, 1 when the measuring application itself computes on the
// host).
func (e Estimate) Contenders(selfJobs int) []core.Contender {
	n := e.Apps - selfJobs
	if n <= 0 {
		return nil
	}
	words := e.MeanMsgWords
	if words < 1 {
		words = 1
	}
	out := make([]core.Contender, n)
	for i := range out {
		out[i] = core.Contender{CommFraction: e.CommFraction, MsgWords: words}
	}
	return out
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
