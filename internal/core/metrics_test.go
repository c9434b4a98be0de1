package core

import (
	"testing"

	"contention/internal/obs"
)

// withTelemetry enables global recording for one test and restores the
// disabled default afterwards.
func withTelemetry(t *testing.T) {
	t.Helper()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
}

// TestPredictionCountersMove checks the prediction tallies: single
// predictions count one each, batches count their grid size and record
// it in the batch-size histogram, and a stale predictor's robust
// fallback is tallied as degraded.
func TestPredictionCountersMove(t *testing.T) {
	withTelemetry(t)
	p, err := NewPredictor(fullCalibration())
	if err != nil {
		t.Fatal(err)
	}
	cs := robustContenders()

	c0 := mPredictComm.Value()
	if _, err := p.PredictComm(HostToBack, []DataSet{{N: 400, Words: 512}}, cs); err != nil {
		t.Fatal(err)
	}
	if d := mPredictComm.Value() - c0; d != 1 {
		t.Fatalf("comm prediction counter moved by %d, want 1", d)
	}

	b0, n0 := mPredictBatch.Count(), mPredictComp.Value()
	if _, err := p.PredictCompBatch([]float64{1, 2, 3}, cs); err != nil {
		t.Fatal(err)
	}
	if d := mPredictComp.Value() - n0; d != 3 {
		t.Fatalf("comp prediction counter moved by %d for a 3-point batch, want 3", d)
	}
	if d := mPredictBatch.Count() - b0; d != 1 {
		t.Fatalf("batch histogram count moved by %d, want 1", d)
	}

	d0 := mPredictDegraded.Value()
	p.MarkStale("test drift")
	if _, err := p.PredictCompRobust(2, cs); err != nil {
		t.Fatal(err)
	}
	if d := mPredictDegraded.Value() - d0; d != 1 {
		t.Fatalf("degraded counter moved by %d, want 1", d)
	}
}
