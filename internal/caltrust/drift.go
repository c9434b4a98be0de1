package caltrust

import (
	"fmt"
	"math"
)

// The Page-Hinkley test's settings detect a sustained ~25% residual
// shift within a couple of observation windows while ignoring isolated
// noise.
const (
	// driftDelta is the drift allowance δ: residual excursions below it
	// are absorbed as noise instead of accumulating toward detection.
	driftDelta = 0.05
	// driftLambda is the detection threshold λ on the cumulative
	// statistic.
	driftLambda = 0.5
	// driftMinSamples is the number of residuals required before
	// detection may fire (the running mean needs a baseline).
	driftMinSamples = 3
)

// Detector is a two-sided Page-Hinkley (CUSUM-family) change detector
// over a residual stream: it accumulates deviations of each residual
// from the running mean beyond the allowance δ and fires when the
// cumulative excursion exceeds λ in either direction. Once fired it
// stays fired until Reset.
type Detector struct {
	n    int
	mean float64
	// Upward test: mUp accumulates (x - mean - δ); the statistic is
	// mUp - min(mUp). Downward is symmetric.
	mUp, minUp     float64
	mDown, maxDown float64
	drifted        bool
}

// NewDetector builds a detector.
func NewDetector() *Detector { return &Detector{} }

// Add feeds one residual. It returns true while the detector considers
// the stream drifted. Non-finite residuals are rejected — they must
// never silently poison the statistic.
func (d *Detector) Add(x float64) (bool, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return d.drifted, fmt.Errorf("caltrust: non-finite residual %v", x)
	}
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	d.mUp += x - d.mean - driftDelta
	if d.mUp < d.minUp {
		d.minUp = d.mUp
	}
	d.mDown += x - d.mean + driftDelta
	if d.mDown > d.maxDown {
		d.maxDown = d.mDown
	}
	if d.n >= driftMinSamples && d.Stat() > driftLambda {
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
func (d *Detector) Reset() { *d = Detector{} }
