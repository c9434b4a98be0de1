package caltrust

import (
	"testing"

	"contention/internal/core"
	"contention/internal/obs"
)

// TestTrustCountersMove checks the drift-alarm tally through a full
// lifecycle: adoption leaves the tracker fresh and the tally alone,
// sustained drift fires exactly one alarm as the tracker goes stale,
// and re-adoption makes it fresh again without another alarm.
func TestTrustCountersMove(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })

	alarms0 := mDriftAlarms.Value()

	pred, err := core.NewPredictor(goodCalibration())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.State(); st != Fresh {
		t.Fatalf("state after adoption = %v, want %v", st, Fresh)
	}

	// Clean residuals establish the Page-Hinkley baseline; a sustained
	// 80% under-prediction then shifts the mean and fires the alarm.
	for i := 0; i < 5; i++ {
		if _, err := tr.Observe(1.0, 1.01); err != nil {
			t.Fatal(err)
		}
	}
	drifted := false
	for i := 0; i < 20 && !drifted; i++ {
		drifted, err = tr.Observe(1.0, 1.8)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !drifted {
		t.Fatal("sustained drift not detected")
	}
	if d := mDriftAlarms.Value() - alarms0; d != 1 {
		t.Fatalf("drift alarms moved by %d, want 1", d)
	}
	if st := tr.State(); st != Stale {
		t.Fatalf("state after drift = %v, want %v", st, Stale)
	}

	recal, err := core.NewPredictor(goodCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Adopt(recal); err != nil {
		t.Fatal(err)
	}
	if st := tr.State(); st != Fresh {
		t.Fatalf("state after re-adoption = %v, want %v", st, Fresh)
	}
	if d := mDriftAlarms.Value() - alarms0; d != 1 {
		t.Fatalf("drift alarms moved by %d after re-adoption, want 1", d)
	}
}
