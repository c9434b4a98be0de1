package core

import (
	"context"
	"testing"

	"contention/internal/runner"
)

// TestPredictorConcurrentUse hammers one shared Predictor from the
// worker pool exactly the way the parallel experiment engine does:
// many goroutines predicting over overlapping contender multisets on
// two shared predictors, plus concurrent MarkStale/ClearStale flips.
// Run under `go test -race` this is the goroutine-safety gate for the
// prediction hot path.
func TestPredictorConcurrentUse(t *testing.T) {
	p, err := NewPredictor(fullCalibration())
	if err != nil {
		t.Fatal(err)
	}
	sets := []DataSet{{N: 10, Words: 100}}
	mixes := [][]Contender{
		robustContenders(),
		{{CommFraction: 0.1, MsgWords: 500}},
		{{CommFraction: 0.5, MsgWords: 500}, {CommFraction: 0.2, MsgWords: 500}},
		{{CommFraction: 0.9, MsgWords: 500}, {CommFraction: 0.3, MsgWords: 500}, {CommFraction: 0.6, MsgWords: 500}},
	}
	// Serial reference values, computed before any concurrency.
	wantComm := make([]float64, len(mixes))
	wantComp := make([]float64, len(mixes))
	for i, cs := range mixes {
		if wantComm[i], err = p.PredictComm(HostToBack, sets, cs); err != nil {
			t.Fatal(err)
		}
		if wantComp[i], err = p.PredictComp(2, cs); err != nil {
			t.Fatal(err)
		}
	}

	// A second predictor: answers must not depend on which one is asked.
	fresh, err := NewPredictor(fullCalibration())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(8)
	_, err = runner.Map(context.Background(), pool, make([]struct{}, 400), func(_ context.Context, i int, _ struct{}) (struct{}, error) {
		cs := mixes[i%len(mixes)]
		switch i % 7 {
		case 3:
			fresh.MarkStale("load shifted")
		case 5:
			fresh.ClearStale()
			_ = fresh.Stale()
		}
		for _, pred := range []*Predictor{p, fresh} {
			comm, err := pred.PredictComm(HostToBack, sets, cs)
			if err != nil {
				return struct{}{}, err
			}
			if comm != wantComm[i%len(mixes)] {
				t.Errorf("task %d: comm %v, want %v", i, comm, wantComm[i%len(mixes)])
			}
			comp, err := pred.PredictComp(2, cs)
			if err != nil {
				return struct{}{}, err
			}
			if comp != wantComp[i%len(mixes)] {
				t.Errorf("task %d: comp %v, want %v", i, comp, wantComp[i%len(mixes)])
			}
		}
		if _, err := fresh.PredictCommRobust(HostToBack, sets, cs); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
