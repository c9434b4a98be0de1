package core

import (
	"strings"
	"testing"
)

func fullCalibration() Calibration {
	return Calibration{
		ToBack: Uniform(0.5, 10),
		ToHost: Uniform(0.5, 10),
		Tables: DelayTables{
			CompOnComm: []float64{0.4, 0.8, 1.2},
			CommOnComm: []float64{0.3, 0.6, 0.9},
			CommOnComp: map[int][]float64{500: {0.5, 1.0, 1.5}},
		},
	}
}

func robustContenders() []Contender {
	return []Contender{
		{CommFraction: 0.3, MsgWords: 500},
		{CommFraction: 0.6, MsgWords: 500},
	}
}

func TestRobustMatchesStrictWhenCalibrated(t *testing.T) {
	p, err := NewPredictor(fullCalibration())
	if err != nil {
		t.Fatal(err)
	}
	cs := robustContenders()
	sets := []DataSet{{N: 10, Words: 100}}
	want, err := p.PredictComm(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictCommRobust(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || got.Value != want {
		t.Fatalf("robust = %+v, strict = %v", got, want)
	}
	wantC, err := p.PredictComp(2, cs)
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := p.PredictCompRobust(2, cs)
	if err != nil {
		t.Fatal(err)
	}
	if gotC.Degraded || gotC.Value != wantC {
		t.Fatalf("comp robust = %+v, strict = %v", gotC, wantC)
	}
}

func TestRobustDegradesWithoutTables(t *testing.T) {
	cal := fullCalibration()
	cal.Tables = DelayTables{}
	p := NewPredictorLenient(cal)
	cs := robustContenders()
	sets := []DataSet{{N: 10, Words: 100}}
	dcomm, err := p.DedicatedComm(HostToBack, sets)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictCommRobust(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.Reason == "" {
		t.Fatalf("table-less prediction not flagged: %+v", got)
	}
	if want := dcomm * WorstCaseSlowdown(cs); got.Value != want {
		t.Fatalf("degraded value %v, want p+1 fallback %v", got.Value, want)
	}
	gotC, err := p.PredictCompRobust(2, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !gotC.Degraded || gotC.Value != 2*WorstCaseSlowdown(cs) {
		t.Fatalf("comp degraded = %+v, want %v", gotC, 2*WorstCaseSlowdown(cs))
	}
	// The strict method silently treats missing table entries as zero
	// delay — the optimistic failure mode the Robust variant replaces
	// with flagged pessimism.
	strict, err := p.PredictComm(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	if strict != dcomm {
		t.Fatalf("strict table-less prediction %v, want optimistic dcomm %v", strict, dcomm)
	}
	if got.Value <= strict {
		t.Fatalf("degraded %v not more conservative than strict %v", got.Value, strict)
	}
}

func TestRobustDegradesOnPartialTables(t *testing.T) {
	// Tables calibrated for 1 contender, asked about 2: pessimism, not
	// silent extrapolation.
	cal := fullCalibration()
	cal.Tables.CompOnComm = cal.Tables.CompOnComm[:1]
	cal.Tables.CommOnComm = cal.Tables.CommOnComm[:1]
	p := NewPredictorLenient(cal)
	got, err := p.PredictCommRobust(HostToBack, []DataSet{{N: 10, Words: 100}}, robustContenders())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || !strings.Contains(got.Reason, "1/2") {
		t.Fatalf("partial-table prediction = %+v, want degraded with coverage reason", got)
	}
}

func TestRobustDegradesWhenStale(t *testing.T) {
	p, err := NewPredictor(fullCalibration())
	if err != nil {
		t.Fatal(err)
	}
	cs := robustContenders()
	sets := []DataSet{{N: 10, Words: 100}}
	p.MarkStale("job mix changed")
	if p.Stale() == "" {
		t.Fatal("Stale() empty after MarkStale")
	}
	got, err := p.PredictCommRobust(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || !strings.Contains(got.Reason, "job mix changed") {
		t.Fatalf("stale prediction = %+v", got)
	}
	p.ClearStale()
	got, err = p.PredictCommRobust(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatalf("prediction still degraded after ClearStale: %+v", got)
	}
}

func TestRobustStillErrorsWithoutCommModel(t *testing.T) {
	// Pessimism cannot substitute for a missing dedicated cost model:
	// no α/β fit means no price at all.
	p := NewPredictorLenient(Calibration{})
	if _, err := p.PredictCommRobust(HostToBack, []DataSet{{N: 1, Words: 10}}, nil); err == nil {
		t.Fatal("priced a transfer with no dedicated model")
	}
	if _, err := p.PredictCompRobust(-1, nil); err == nil {
		t.Fatal("negative dcomp accepted")
	}
}

func TestWorstCaseSlowdown(t *testing.T) {
	if got := WorstCaseSlowdown(nil); got != 1 {
		t.Fatalf("WorstCaseSlowdown(nil) = %v", got)
	}
	if got := WorstCaseSlowdown(make([]Contender, 3)); got != 4 {
		t.Fatalf("WorstCaseSlowdown(3) = %v", got)
	}
}

// TestNewPredictorAllocs pins the constructor's allocation count: a
// scheduler builds one predictor per recalibration epoch, and the
// end-to-end benchmark gates allocations per operation. 10 is what the
// constructor cost when it validated every component twice.
func TestNewPredictorAllocs(t *testing.T) {
	cal := fullCalibration()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewPredictor(cal); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("NewPredictor allocates %.0f objects, want ≤ 10", allocs)
	}
	t.Logf("NewPredictor: %.0f allocations", allocs)
}
