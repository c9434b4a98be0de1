package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func testTables() DelayTables {
	return DelayTables{
		CompOnComm: []float64{0.9, 1.8, 2.7},
		CommOnComm: []float64{0.5, 1.0, 1.5},
		CommOnComp: map[int][]float64{
			1:    {0.1, 0.2, 0.3},
			500:  {0.4, 0.8, 1.2},
			1000: {0.7, 1.4, 2.1},
		},
	}
}

func TestSystemMatchesBatchFormulas(t *testing.T) {
	sys, err := NewSystem(testTables())
	if err != nil {
		t.Fatal(err)
	}
	cs := []Contender{
		{CommFraction: 0.25, MsgWords: 200},
		{CommFraction: 0.76, MsgWords: 200},
	}
	for _, c := range cs {
		if err := sys.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	wantComm, err := CommSlowdown(cs, testTables())
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.CommSlowdown(); got != wantComm {
		t.Fatalf("System.CommSlowdown = %v, batch = %v", got, wantComm)
	}
	wantComp, err := CompSlowdown(cs, testTables())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.CompSlowdown()
	if err != nil {
		t.Fatal(err)
	}
	if got != wantComp {
		t.Fatalf("System.CompSlowdown = %v, batch = %v", got, wantComp)
	}
}

// TestSystemAddRemoveSequence: after every step of random Add/Remove
// sequences over random tables — duplicates included, sets of up to 80
// contenders (past the stack scratch) — a System returns a Predictor's
// bits for its current set: comm, comp under the auto-j rule, and comp at
// an explicit j.
func TestSystemAddRemoveSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bits := math.Float64bits
	for trial := 0; trial < 40; trial++ {
		tables := randomMonotoneTables(rng, 1+rng.Intn(90))
		pred := NewPredictorLenient(Calibration{Tables: tables})
		sys, err := NewSystem(tables)
		if err != nil {
			t.Fatal(err)
		}
		grow := 0.5 + 0.3*rng.Float64() // share of steps that add
		var live []Contender
		for step := 0; step < 200; step++ {
			if len(live) == 0 || len(live) < 80 && rng.Float64() < grow {
				c := randomContenders(rng, 1)[0]
				if len(live) > 0 && rng.Intn(4) == 0 {
					c = live[rng.Intn(len(live))]
				}
				if err := sys.Add(c); err != nil {
					t.Fatal(err)
				}
				live = append(live, c)
			} else {
				idx := rng.Intn(len(live))
				if err := sys.Remove(idx); err != nil {
					t.Fatal(err)
				}
				live = append(live[:idx], live[idx+1:]...)
			}
			if sys.Len() != len(live) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, sys.Len(), len(live))
			}
			j := kernelJs[rng.Intn(len(kernelJs))]
			wantComm, err1 := pred.CommSlowdown(live)
			wantComp, err2 := pred.CompSlowdown(live)
			wantJ, err3 := pred.CompSlowdownWithJ(live, j)
			if err := errors.Join(err1, err2, err3); err != nil {
				t.Fatal(err)
			}
			comp, err := sys.CompSlowdown()
			if err != nil {
				t.Fatal(err)
			}
			compJ, err := sys.CompSlowdownWithJ(j)
			if err != nil {
				t.Fatal(err)
			}
			if comm := sys.CommSlowdown(); bits(comm) != bits(wantComm) || bits(comp) != bits(wantComp) || bits(compJ) != bits(wantJ) {
				t.Fatalf("trial %d step %d p=%d: System (comm, comp, comp j=%d) = %v, %v, %v; Predictor %v, %v, %v",
					trial, step, len(live), j, comm, comp, compJ, wantComm, wantComp, wantJ)
			}
		}
	}
}

func TestSystemEmptySlowdownsAreOne(t *testing.T) {
	sys, err := NewSystem(testTables())
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.CommSlowdown(); got != 1 {
		t.Fatalf("empty CommSlowdown = %v, want 1", got)
	}
	got, err := sys.CompSlowdown()
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("empty CompSlowdown = %v, want 1", got)
	}
}

func TestSystemRejectsInvalid(t *testing.T) {
	sys, err := NewSystem(testTables())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Add(Contender{CommFraction: 2}); err == nil {
		t.Fatal("invalid contender accepted")
	}
	if sys.Len() != 0 {
		t.Fatal("failed add changed state")
	}
	if err := sys.Remove(0); err == nil {
		t.Fatal("remove from empty system did not error")
	}
}

func TestSystemContendersCopy(t *testing.T) {
	sys, _ := NewSystem(testTables())
	_ = sys.Add(Contender{CommFraction: 0.5, MsgWords: 10})
	cs := sys.Contenders()
	cs[0].CommFraction = 0.9
	if sys.Contenders()[0].CommFraction != 0.5 {
		t.Fatal("Contenders() returned a live reference")
	}
}

func TestNewSystemValidatesTables(t *testing.T) {
	if _, err := NewSystem(DelayTables{CompOnComm: []float64{-1}}); err == nil {
		t.Fatal("invalid tables accepted")
	}
}

func TestPredictorEndToEnd(t *testing.T) {
	cal := Calibration{
		ToBack: CommModel{Threshold: 1024,
			Small: CommPiece{Alpha: 0.001, Beta: 1e6},
			Large: CommPiece{Alpha: 0.004, Beta: 8e5}},
		ToHost:   Uniform(0.002, 9e5),
		Tables:   testTables(),
		Platform: "sun/paragon",
	}
	pr, err := NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	sets := []DataSet{{N: 1000, Words: 200}}
	dcomm, err := pr.DedicatedComm(HostToBack, sets)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 * (0.001 + 200/1e6)
	if math.Abs(dcomm-want) > 1e-9 {
		t.Fatalf("DedicatedComm = %v, want %v", dcomm, want)
	}
	cs := []Contender{{CommFraction: 0.25, MsgWords: 200}, {CommFraction: 0.76, MsgWords: 200}}
	pred, err := pr.PredictComm(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := CommSlowdown(cs, testTables())
	if math.Abs(pred-dcomm*sd) > 1e-9 {
		t.Fatalf("PredictComm = %v, want %v", pred, dcomm*sd)
	}
	comp, err := pr.PredictComp(10, cs)
	if err != nil {
		t.Fatal(err)
	}
	sd2, _ := CompSlowdown(cs, testTables())
	if math.Abs(comp-10*sd2) > 1e-9 {
		t.Fatalf("PredictComp = %v, want %v", comp, 10*sd2)
	}
	compJ, err := pr.PredictCompWithJ(10, cs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sd3, _ := CompSlowdownWithJ(cs, testTables(), 1000)
	if math.Abs(compJ-10*sd3) > 1e-9 {
		t.Fatalf("PredictCompWithJ = %v, want %v", compJ, 10*sd3)
	}
}

func TestPredictorErrors(t *testing.T) {
	if _, err := NewPredictor(Calibration{}); err == nil {
		t.Fatal("zero calibration accepted")
	}
	cal := Calibration{ToBack: Uniform(0, 1), ToHost: Uniform(0, 1), Tables: testTables()}
	pr, err := NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.DedicatedComm(Direction(9), nil); err == nil {
		t.Fatal("unknown direction accepted")
	}
	if _, err := pr.PredictComp(-1, nil); err == nil {
		t.Fatal("negative dcomp accepted")
	}
	if _, err := pr.PredictCompWithJ(-1, nil, 500); err == nil {
		t.Fatal("negative dcomp accepted (WithJ)")
	}
}

func TestDirectionString(t *testing.T) {
	if HostToBack.String() == "" || BackToHost.String() == "" {
		t.Fatal("empty direction strings")
	}
	if Direction(9).String() == "" {
		t.Fatal("unknown direction should still render")
	}
}

func TestCalibrationSaveLoadRoundTrip(t *testing.T) {
	cal := Calibration{
		ToBack: CommModel{Threshold: 1024,
			Small: CommPiece{Alpha: 0.001, Beta: 1e6},
			Large: CommPiece{Alpha: 0.004, Beta: 8e5}},
		ToHost:   Uniform(0.002, 9e5),
		Tables:   testTables(),
		Platform: "sun/paragon (1-HOP)",
	}
	var buf bytes.Buffer
	if err := cal.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCalibration(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Platform != cal.Platform || back.ToBack.Threshold != 1024 {
		t.Fatalf("round trip lost metadata: %+v", back)
	}
	// Predictions from the loaded calibration are identical.
	p1, err := NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPredictor(back)
	if err != nil {
		t.Fatal(err)
	}
	cs := []Contender{{CommFraction: 0.4, MsgWords: 500}}
	sets := []DataSet{{N: 100, Words: 700}}
	a, err := p1.PredictComm(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2.PredictComm(HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("prediction drift after round trip: %v vs %v", a, b)
	}
	// The j-columns (integer-keyed map) must survive.
	j1, err := cal.Tables.NearestJ(600)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := back.Tables.NearestJ(600)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("j grid lost: %d vs %d", j1, j2)
	}
}

func TestSaveRejectsInvalidAndLoadRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := (Calibration{}).Save(&buf); err == nil {
		t.Fatal("saving a zero calibration did not error")
	}
	if _, err := LoadCalibration(strings.NewReader("{")); err == nil {
		t.Fatal("loading truncated JSON did not error")
	}
	if _, err := LoadCalibration(strings.NewReader(`{"ToBack":{"Threshold":0}}`)); err == nil {
		t.Fatal("loading invalid calibration did not error")
	}
}
