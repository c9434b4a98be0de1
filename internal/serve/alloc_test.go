package serve

import (
	"testing"

	"contention/internal/core"
)

// TestWarmPredictorStaysAllocationFree re-asserts the core 0 allocs/op
// contract from inside the serve package: linking the serving layer
// (its metric registrations run at init) must not add allocations to
// the direct-call prediction path the daemon's batcher sits on.
func TestWarmPredictorStaysAllocationFree(t *testing.T) {
	p := newTestPredictor(t)
	cs := []core.Contender{
		{CommFraction: 0.25, MsgWords: 600},
		{CommFraction: 0.40, MsgWords: 1500, IOFraction: 0.1},
	}
	sets := []core.DataSet{{N: 400, Words: 512}}
	if _, err := p.PredictComm(core.HostToBack, sets, cs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictComp(2, cs); err != nil {
		t.Fatal(err)
	}
	commAllocs := testing.AllocsPerRun(200, func() {
		if _, err := p.PredictComm(core.HostToBack, sets, cs); err != nil {
			t.Fatal(err)
		}
	})
	if commAllocs != 0 {
		t.Fatalf("warm PredictComm allocates %.1f objects/op with serve linked, want 0", commAllocs)
	}
	compAllocs := testing.AllocsPerRun(200, func() {
		if _, err := p.PredictComp(2, cs); err != nil {
			t.Fatal(err)
		}
	})
	if compAllocs != 0 {
		t.Fatalf("warm PredictComp allocates %.1f objects/op with serve linked, want 0", compAllocs)
	}
}
