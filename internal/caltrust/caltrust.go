// Package caltrust is the calibration trust layer: it decides whether
// the constants every prediction hangs off — the piecewise (α, β) comm
// models and the delay tables of Figueira & Berman — can still be
// believed, and what to do when they cannot.
//
// It has four pieces:
//
//   - Invariant validation (Validate): beyond the structural checks in
//     package core, the trust layer enforces physical invariants —
//     delay tables monotone in contender count, comm-model pieces
//     consistent at the breakpoint — reporting violations as the
//     structured core.ValidationReport.
//   - Drift detection (Detector): a two-sided Page-Hinkley/CUSUM test
//     over prediction residuals that flags a platform that has drifted
//     since calibration (the "slowdown factors should be recalculated
//     when the job mix changes" concern of the paper's §4, generalised
//     to platform-parameter drift).
//   - A trust state machine (Tracker): Fresh → Stale on detected
//     drift (flipping the predictor to its p+1 degraded fallback and
//     optionally requesting recalibration), Degraded when the
//     calibration fails validation outright, and back to Fresh when a
//     recalibrated artifact is adopted.
//   - Safe persistence (WriteFile/ReadFile/Store): calibrations are
//     written atomically with a schema version and checksum, and loads
//     reject corrupt, truncated, or incompatibly-versioned files.
package caltrust

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"contention/internal/core"
	"contention/internal/obs"
)

// Trust-layer telemetry: every drift alarm is counted, so a run
// manifest can report how often trust was lost.
var mDriftAlarms = obs.NewCounter(obs.MetricDriftAlarms,
	"Fresh→Stale drift detections across all trackers")

// TrustState classifies the active calibration.
type TrustState int

const (
	// Fresh: the calibration validates and no drift has been detected.
	Fresh TrustState = iota
	// Stale: drift detected since calibration; predictions fall back to
	// the conservative p+1 worst case until recalibration.
	Stale
	// Degraded: the calibration fails invariant validation; it should
	// never have been trusted in the first place.
	Degraded
)

// String implements fmt.Stringer.
func (s TrustState) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	case Degraded:
		return "degraded"
	default:
		return fmt.Sprintf("TrustState(%d)", int(s))
	}
}

// Tracker binds a predictor to the trust state machine: it validates
// the calibration at adoption, watches prediction residuals for drift,
// and flips the predictor to its degraded fallback when trust is lost.
//
// A Tracker is goroutine-safe: the serving daemon consults State on
// every request while live residuals stream into Observe. The onStale
// hook is invoked outside the tracker's lock, so it may safely call
// back into the tracker (e.g. Adopt after recalibration).
type Tracker struct {
	onStale func(reason string)

	mu       sync.Mutex
	pred     *core.Predictor
	det      *Detector
	state    TrustState
	reason   string
	observed int
}

// NewTracker builds a tracker around pred. A calibration that fails
// strict validation is adopted in the Degraded state (its predictor is
// marked stale so robust predictions fall back to p+1) rather than
// rejected — the trust layer reports, the caller decides. onStale, when
// non-nil, is invoked once at the Fresh→Stale transition — the hook a
// resource manager uses to request automatic recalibration.
func NewTracker(pred *core.Predictor, onStale func(reason string)) (*Tracker, error) {
	if pred == nil {
		return nil, errors.New("caltrust: nil predictor")
	}
	t := &Tracker{onStale: onStale, pred: pred, det: NewDetector()}
	t.mu.Lock()
	t.adopt(pred)
	t.mu.Unlock()
	return t, nil
}

// adopt installs pred and derives the initial trust state from strict
// validation. Caller holds t.mu.
func (t *Tracker) adopt(pred *core.Predictor) {
	t.pred = pred
	t.det.Reset()
	t.observed = 0
	report := Validate(pred.Calibration())
	if fatal := report.Fatal(); len(fatal) > 0 {
		t.state = Degraded
		t.reason = fatal[0].String()
		pred.MarkStale(t.reason)
		return
	}
	t.state = Fresh
	t.reason = ""
	pred.ClearStale()
}

// State returns the current trust state.
func (t *Tracker) State() TrustState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Reason explains a non-Fresh state ("" when Fresh).
func (t *Tracker) Reason() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reason
}

// Predictor returns the tracked predictor.
func (t *Tracker) Predictor() *core.Predictor {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pred
}

// Observe feeds one predicted/observed cost pair (same units, both
// positive and finite) into the drift detector. It returns true at the
// Fresh→Stale transition: the predictor is marked stale — flipping its
// Robust predictions to the p+1 fallback — and the onStale hook fires.
// Non-finite or non-positive inputs are rejected with an error and do
// not reach the detector.
func (t *Tracker) Observe(predicted, observed float64) (bool, error) {
	if !(predicted > 0) || math.IsInf(predicted, 0) {
		return false, fmt.Errorf("caltrust: predicted cost %v must be positive and finite", predicted)
	}
	if !(observed > 0) || math.IsInf(observed, 0) {
		return false, fmt.Errorf("caltrust: observed cost %v must be positive and finite", observed)
	}
	t.mu.Lock()
	t.observed++
	residual := observed/predicted - 1
	drifted, err := t.det.Add(residual)
	if err != nil {
		t.mu.Unlock()
		return false, err
	}
	if drifted && t.state == Fresh {
		t.state = Stale
		t.reason = fmt.Sprintf("drift detected after %d observations (residual %+.3f, PH stat %.3f > λ %.3f)",
			t.observed, residual, t.det.Stat(), driftLambda)
		reason := t.reason
		mDriftAlarms.Inc()
		t.pred.MarkStale(reason)
		t.mu.Unlock()
		if t.onStale != nil {
			t.onStale(reason)
		}
		return true, nil
	}
	t.mu.Unlock()
	return false, nil
}

// Adopt swaps in a predictor built from a fresh calibration (after
// recalibration), resets the drift detector, and re-derives the trust
// state from validation — Fresh when the new artifact is clean. The
// superseded predictor is marked stale, which also invalidates any
// precomputed surface attached to it: anything still holding the old
// predictor degrades to the p+1 fallback instead of serving values
// from a calibration that has been replaced.
func (t *Tracker) Adopt(pred *core.Predictor) error {
	if pred == nil {
		return errors.New("caltrust: nil predictor")
	}
	t.mu.Lock()
	old := t.pred
	t.adopt(pred)
	t.mu.Unlock()
	if old != nil && old != pred {
		old.MarkStale("superseded by recalibration")
	}
	return nil
}
