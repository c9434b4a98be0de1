package experiments

import (
	"strings"
	"testing"

	"contention/internal/runner"
)

// renderAll renders every core and extension result into one blob.
func renderAll(t *testing.T, e *Env) string {
	t.Helper()
	results, err := All(e)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := extensions(e)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range append(results, ext...) {
		b.WriteString(r.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelMatchesSerialByteIdentical is the golden test for the
// experiment engine: the full suite (core figures/tables plus every
// extension driver) rendered through the worker pool must be
// byte-for-byte identical to the serial run.
func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	e := env(t)
	serial := renderAll(t, e.WithPool(nil))
	parallel := renderAll(t, e.WithPool(runner.New(4)))
	if serial != parallel {
		line := 0
		sLines, pLines := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
		for i := 0; i < len(sLines) && i < len(pLines); i++ {
			if sLines[i] != pLines[i] {
				line = i
				break
			}
		}
		t.Fatalf("parallel output diverges from serial at line %d:\nserial:   %q\nparallel: %q",
			line+1, sLines[line], pLines[line])
	}
}
