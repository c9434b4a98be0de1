package caltrust

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contention/internal/core"
)

func TestWriteReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	cal := goodCalibration()
	meta := Meta{Note: "unit test"}
	if err := WriteFile(path, cal, meta); err != nil {
		t.Fatal(err)
	}
	got, env, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if env.Schema != SchemaVersion || env.Platform != "test" || env.Note != "unit test" {
		t.Fatalf("envelope %+v", env)
	}
	if got.Platform != cal.Platform || len(got.Tables.CompOnComm) != len(cal.Tables.CompOnComm) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

func TestWriteFileRefusesInvalidCalibration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := WriteFile(path, core.Calibration{}, Meta{}); err == nil {
		t.Fatal("invalid calibration persisted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("refused write still created the file")
	}
}

func TestReadFileRejectsTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	if err := WriteFile(path, goodCalibration(), Meta{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 2} {
		trunc := filepath.Join(dir, "trunc.json")
		if err := os.WriteFile(trunc, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadFile(trunc)
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

func TestReadFileRejectsBitRot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	if err := WriteFile(path, goodCalibration(), Meta{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the payload, keeping valid JSON, so only
	// the checksum can catch it.
	s := string(data)
	idx := strings.Index(s, "0.9")
	if idx < 0 {
		t.Fatalf("marker value not found in %s", s)
	}
	rotted := s[:idx] + "0.8" + s[idx+3:]
	if err := os.WriteFile(path, []byte(rotted), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadFile(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit rot not caught by checksum: %v", err)
	}
}

func TestReadFileRejectsFutureSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	if err := WriteFile(path, goodCalibration(), Meta{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env.Schema = SchemaVersion + 1
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadFile(path)
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("future schema accepted: %v", err)
	}
}

func TestDecodeLegacyRawCalibration(t *testing.T) {
	raw, err := json.Marshal(goodCalibration())
	if err != nil {
		t.Fatal(err)
	}
	cal, env, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if env.Schema != 0 {
		t.Fatalf("legacy schema %d, want 0", env.Schema)
	}
	if cal.Platform != "test" {
		t.Fatalf("legacy decode lost data: %+v", cal)
	}
	// Arbitrary JSON is not a calibration.
	if _, _, err := Decode([]byte(`{"foo": 1}`)); err == nil {
		t.Fatal("arbitrary JSON decoded as a calibration")
	}
}

// TestDecodeRejectsInvalidCalibration: a well-formed file whose
// calibration fails validation is refused, both as a legacy raw
// calibration and inside an envelope whose checksum matches.
func TestDecodeRejectsInvalidCalibration(t *testing.T) {
	payload := []byte(`{"ToBack":{"Threshold":0}}`)
	if _, _, err := Decode(payload); err == nil {
		t.Fatal("invalid legacy calibration decoded")
	}
	sum, err := checksum(payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(Envelope{Schema: SchemaVersion, Checksum: sum, Calibration: payload})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid enveloped calibration: err %v, want a validation error", err)
	}
}

func TestStoreVersioning(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "cals"))
	if err != nil {
		t.Fatal(err)
	}
	cal := goodCalibration()
	v1, err := store.Save(cal, Meta{Note: "initial"})
	if err != nil {
		t.Fatal(err)
	}
	cal2 := goodCalibration()
	cal2.Tables.CompOnComm = []float64{1.0, 2.0, 3.0, 4.0}
	v2, err := store.Save(cal2, Meta{Note: "recalibrated"})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions %d, %d, want 1, 2", v1, v2)
	}
	versions, err := store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0] != 1 || versions[1] != 2 {
		t.Fatalf("Versions() = %v", versions)
	}
	cur, env, v, err := store.Current()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || env.Note != "recalibrated" || cur.Tables.CompOnComm[0] != 1.0 {
		t.Fatalf("Current() = v%d %+v", v, env)
	}
	// Old versions stay loadable (rollback).
	old, env1, err := store.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if env1.Note != "initial" || old.Tables.CompOnComm[0] != 0.9 {
		t.Fatalf("Load(1) = %+v %+v", old.Tables.CompOnComm, env1)
	}
}
