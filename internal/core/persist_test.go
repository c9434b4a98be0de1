package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// loadCalibration reads a calibration written by Save and validates it:
// the inverse Save's tests hold it to. Production loads calibrations
// through internal/caltrust.
func loadCalibration(r io.Reader) (Calibration, error) {
	var c Calibration
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return Calibration{}, fmt.Errorf("core: decoding calibration: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Calibration{}, fmt.Errorf("core: loaded calibration invalid: %w", err)
	}
	return c, nil
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
	back, err := loadCalibration(&buf)
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
	if _, err := loadCalibration(strings.NewReader("{")); err == nil {
		t.Fatal("loading truncated JSON did not error")
	}
	if _, err := loadCalibration(strings.NewReader(`{"ToBack":{"Threshold":0}}`)); err == nil {
		t.Fatal("loading invalid calibration did not error")
	}
}
