package caltrust

import (
	"math"
	"strings"
	"testing"

	"contention/internal/core"
)

func goodCalibration() core.Calibration {
	return core.Calibration{
		ToBack: core.CommModel{Threshold: 1024,
			Small: core.CommPiece{Alpha: 1e-3, Beta: 2.5e5},
			Large: core.CommPiece{Alpha: 2e-3, Beta: 2.8e5}},
		ToHost: core.Uniform(1.2e-3, 3e5),
		Tables: core.DelayTables{
			CompOnComm: []float64{0.9, 1.8, 2.7, 3.5},
			CommOnComm: []float64{0.5, 1.1, 1.6, 2.2},
			CommOnComp: map[int][]float64{1: {0.1, 0.2, 0.3}, 500: {0.4, 0.8, 1.2}},
		},
		Platform: "test",
	}
}

func TestValidateAcceptsGoodCalibration(t *testing.T) {
	report := Validate(goodCalibration())
	if !report.OK() {
		t.Fatalf("good calibration rejected:\n%s", report)
	}
}

func TestValidateRejectsNonMonotoneTable(t *testing.T) {
	cal := goodCalibration()
	cal.Tables.CompOnComm = []float64{2.0, 0.4, 2.5, 3.0} // big dip at i=2
	report := Validate(cal)
	if report.OK() {
		t.Fatal("non-monotone delay table passed strict validation")
	}
	found := false
	for _, v := range report.Fatal() {
		if v.Path == "Tables.CompOnComm[1]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violation not located at Tables.CompOnComm[1]:\n%s", report)
	}
	// A dip within the slack is absorbed as measurement jitter.
	cal.Tables.CompOnComm = []float64{2.0, 1.95, 2.5, 3.0}
	if report := Validate(cal); !report.OK() {
		t.Fatalf("jitter-sized dip rejected:\n%s", report)
	}
}

func TestValidateWarnsOnInconsistentBreakpoint(t *testing.T) {
	cal := goodCalibration()
	// Large piece prices a threshold-sized message at ~4x the small piece.
	cal.ToBack.Large = core.CommPiece{Alpha: 0.012, Beta: 2.8e5}
	report := Validate(cal)
	if !report.OK() {
		t.Fatalf("breakpoint mismatch should be advisory, got fatal:\n%s", report)
	}
	warned := false
	for _, v := range report.Violations {
		if v.Warn && v.Path == "ToBack.Threshold" {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no breakpoint warning emitted:\n%s", report)
	}
}

func TestDetectorFiresOnSustainedShift(t *testing.T) {
	d := NewDetector()
	// Clean residuals: small zero-mean noise must not fire.
	noise := []float64{0.01, -0.02, 0.015, -0.01, 0.02, -0.015, 0.01, -0.005}
	for _, x := range noise {
		fired, err := d.Add(x)
		if err != nil {
			t.Fatal(err)
		}
		if fired {
			t.Fatalf("detector fired on noise (stat %.3f)", d.Stat())
		}
	}
	// Sustained +60% shift: must fire within a handful of samples.
	firedAt := -1
	for i := 0; i < 10; i++ {
		fired, err := d.Add(0.6)
		if err != nil {
			t.Fatal(err)
		}
		if fired {
			firedAt = i
			break
		}
	}
	if firedAt < 0 {
		t.Fatal("detector never fired on a sustained 60% shift")
	}
	if firedAt > 4 {
		t.Fatalf("detection took %d shifted samples, want ≤ 4", firedAt+1)
	}
	if !d.drifted {
		t.Fatal("Drifted() false after firing")
	}
	d.Reset()
	if d.drifted || d.n != 0 {
		t.Fatal("Reset did not clear the detector")
	}
}

func TestDetectorTwoSided(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 6; i++ {
		if _, err := d.Add(0.0); err != nil {
			t.Fatal(err)
		}
	}
	fired := false
	for i := 0; i < 10; i++ {
		f, err := d.Add(-0.6) // platform got faster: model now over-predicts
		if err != nil {
			t.Fatal(err)
		}
		if f {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("downward drift not detected")
	}
}

func TestDetectorRejectsNonFinite(t *testing.T) {
	d := NewDetector()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := d.Add(bad); err == nil {
			t.Fatalf("Add(%v) did not error", bad)
		}
	}
	if d.n != 0 {
		t.Fatalf("rejected residuals were counted: n=%d", d.n)
	}
}

func TestTrackerLifecycle(t *testing.T) {
	pred, err := core.NewPredictor(goodCalibration())
	if err != nil {
		t.Fatal(err)
	}
	staleReason := ""
	tr, err := NewTracker(pred, func(reason string) { staleReason = reason })
	if err != nil {
		t.Fatal(err)
	}
	if tr.State() != Fresh {
		t.Fatalf("initial state %v, want fresh", tr.State())
	}

	// Healthy residuals keep it fresh.
	for i := 0; i < 5; i++ {
		if _, err := tr.Observe(1.0, 1.01); err != nil {
			t.Fatal(err)
		}
	}
	if tr.State() != Fresh {
		t.Fatalf("state %v after clean residuals, want fresh", tr.State())
	}

	// Sustained 80% under-prediction: drift fires, predictor flips to
	// the degraded fallback, the hook sees the reason.
	flipped := false
	for i := 0; i < 10; i++ {
		d, err := tr.Observe(1.0, 1.8)
		if err != nil {
			t.Fatal(err)
		}
		if d {
			flipped = true
			break
		}
	}
	if !flipped || tr.State() != Stale {
		t.Fatalf("drift not detected (state %v)", tr.State())
	}
	if staleReason == "" || !strings.Contains(staleReason, "drift detected") {
		t.Fatalf("OnStale reason %q", staleReason)
	}
	if pred.Stale() == "" {
		t.Fatal("predictor not marked stale")
	}
	cs := []core.Contender{{CommFraction: 0.5, MsgWords: 200}}
	p, err := pred.PredictCommRobust(core.HostToBack, []core.DataSet{{N: 10, Words: 100}}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Degraded {
		t.Fatal("stale predictor did not degrade its prediction")
	}

	// Adopting a recalibrated predictor restores trust.
	fresh, err := core.NewPredictor(goodCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Adopt(fresh); err != nil {
		t.Fatal(err)
	}
	if tr.State() != Fresh || tr.observed != 0 {
		t.Fatalf("post-adopt state %v observed %d, want fresh/0", tr.State(), tr.observed)
	}
	p2, err := fresh.PredictCommRobust(core.HostToBack, []core.DataSet{{N: 10, Words: 100}}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Degraded {
		t.Fatalf("recalibrated predictor still degraded: %q", p2.Reason)
	}
}

func TestTrackerDegradedOnInvalidCalibration(t *testing.T) {
	cal := goodCalibration()
	cal.Tables.CompOnComm = []float64{3.0, 0.2, 3.5, 4.0} // grossly non-monotone
	pred := core.NewPredictorLenient(cal)
	tr, err := NewTracker(pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.State() != Degraded {
		t.Fatalf("state %v for invalid calibration, want degraded", tr.State())
	}
	if tr.Reason() == "" {
		t.Fatal("degraded state carries no reason")
	}
	if pred.Stale() == "" {
		t.Fatal("degraded calibration's predictor not marked stale")
	}
}

func TestTrackerObserveRejectsBadInputs(t *testing.T) {
	pred, err := core.NewPredictor(goodCalibration())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][2]float64{
		{0, 1}, {-1, 1}, {math.NaN(), 1}, {math.Inf(1), 1},
		{1, 0}, {1, -2}, {1, math.NaN()}, {1, math.Inf(1)},
	}
	for _, pair := range bad {
		if _, err := tr.Observe(pair[0], pair[1]); err == nil {
			t.Errorf("Observe(%v, %v) did not error", pair[0], pair[1])
		}
	}
	if tr.observed != 0 {
		t.Fatalf("rejected observations were counted: %d", tr.observed)
	}
}
