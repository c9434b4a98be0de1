package caltrust

import (
	"fmt"
	"math"
)

// DriftConfig parameterizes the Page-Hinkley drift test.
type DriftConfig struct {
	// Delta is the drift allowance: residual excursions below it are
	// absorbed as noise instead of accumulating toward detection.
	Delta float64
	// Lambda is the detection threshold on the cumulative statistic.
	Lambda float64
	// MinSamples is the number of residuals required before detection
	// may fire (the running mean needs a baseline).
	MinSamples int
}

// DefaultDriftConfig detects a sustained ~25% residual shift within a
// couple of observation windows while ignoring isolated noise.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{Delta: 0.05, Lambda: 0.5, MinSamples: 3}
}

func (c DriftConfig) validate() error {
	if c.Delta < 0 || math.IsNaN(c.Delta) || math.IsInf(c.Delta, 0) {
		return fmt.Errorf("caltrust: drift allowance δ = %v must be non-negative and finite", c.Delta)
	}
	if !(c.Lambda > 0) || math.IsInf(c.Lambda, 0) {
		return fmt.Errorf("caltrust: detection threshold λ = %v must be positive and finite", c.Lambda)
	}
	if c.MinSamples < 1 {
		return fmt.Errorf("caltrust: min samples %d must be ≥ 1", c.MinSamples)
	}
	return nil
}

// Detector is a two-sided Page-Hinkley (CUSUM-family) change detector
// over a residual stream: it accumulates deviations of each residual
// from the running mean beyond the allowance δ and fires when the
// cumulative excursion exceeds λ in either direction. Once fired it
// stays fired until Reset.
type Detector struct {
	cfg  DriftConfig
	n    int
	mean float64
	// Upward test: mUp accumulates (x - mean - δ); the statistic is
	// mUp - min(mUp). Downward is symmetric.
	mUp, minUp     float64
	mDown, maxDown float64
	drifted        bool
}

// NewDetector builds a detector.
func NewDetector(cfg DriftConfig) (*Detector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Add feeds one residual. It returns true while the detector considers
// the stream drifted. Non-finite residuals are rejected — they must
// never silently poison the statistic.
func (d *Detector) Add(x float64) (bool, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return d.drifted, fmt.Errorf("caltrust: non-finite residual %v", x)
	}
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	d.mUp += x - d.mean - d.cfg.Delta
	if d.mUp < d.minUp {
		d.minUp = d.mUp
	}
	d.mDown += x - d.mean + d.cfg.Delta
	if d.mDown > d.maxDown {
		d.maxDown = d.mDown
	}
	if d.n >= d.cfg.MinSamples && d.Stat() > d.cfg.Lambda {
		d.drifted = true
	}
	return d.drifted, nil
}

// Stat returns the current detection statistic: the larger of the
// upward and downward cumulative excursions.
func (d *Detector) Stat() float64 {
	return math.Max(d.mUp-d.minUp, d.maxDown-d.mDown)
}

// Reset clears all state (after recalibration).
func (d *Detector) Reset() { *d = Detector{cfg: d.cfg} }
