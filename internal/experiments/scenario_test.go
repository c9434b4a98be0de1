package experiments

import (
	"strings"
	"testing"
	"time"

	"contention/internal/scenario"
)

// TestScenarioReplayDeterministic pins the DES replay driver: two full
// runs must render byte-identically (the property the parallel-suite
// gate relies on), every mixed-builtin cohort must appear as a series,
// and the replay error must be exactly zero.
func TestScenarioReplayDeterministic(t *testing.T) {
	e := env(t)
	r1, err := ScenarioReplay(e)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ScenarioReplay(e)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r1.Render(), r2.Render(); a != b {
		t.Fatalf("two replay runs rendered differently:\n%s\n---\n%s", a, b)
	}
	for _, cohort := range []string{"batch", "interactive", "crowd"} {
		if _, ok := r1.seriesByName(cohort + " req/s"); !ok {
			t.Fatalf("no arrival series for cohort %q", cohort)
		}
	}
	if _, ok := r1.seriesByName("mean slowdown"); !ok {
		t.Fatal("no mean-slowdown series")
	}
	if got := r1.Err("replay"); got != 0 {
		t.Fatalf("replay error %.3f%%, want exactly 0", got)
	}
	// The flash-crowd cohort must actually surge: its peak bucket rate
	// well above its quietest.
	crowd, _ := r1.seriesByName("crowd req/s")
	lo, hi := crowd.Y[0], crowd.Y[0]
	for _, y := range crowd.Y {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	if hi < 4*(lo+1) {
		t.Fatalf("crowd cohort never surged: bucket rates span [%.1f, %.1f]", lo, hi)
	}
}

// TestScenarioSweepSmokeCell drives single cells of the sweep matrix —
// the direct and batched targets on the steady scenario — and holds the
// record/replay verification on each, with every request answered.
// The full matrix runs in TestScenarioSweepMatrix.
func TestScenarioSweepSmokeCell(t *testing.T) {
	for _, c := range []struct{ wire, mode string }{
		{"binary", "direct"}, {"binary+surface", "direct"}, {"json", "batched"},
	} {
		var (
			tg  *sweepTarget
			err error
		)
		if c.mode == "direct" {
			tg, err = directTarget(c.wire)
		} else {
			tg, err = servedTarget(c.wire, c.mode)
		}
		if err != nil {
			t.Fatal(err)
		}
		plays := sweepPlays(t, "steady", 60, wireFormat(c.wire))
		s, _, m := sweepCell(tg, plays)
		tg.close()
		if m != 0 {
			t.Fatalf("%s/%s: %d replay mismatches", c.mode, c.wire, m)
		}
		if s.OK != len(plays) {
			t.Fatalf("%s/%s: %d of %d requests answered; first error %v", c.mode, c.wire, s.OK, len(plays), s.FirstErr)
		}
		if c.wire == "binary+surface" && s.Fast == 0 {
			t.Fatal("binary+surface direct cell never hit the fast path")
		}
	}
}

// sweepPlays realizes one builtin scenario into wire bodies.
func sweepPlays(t *testing.T, name string, n int, format string) []scenario.Record {
	t.Helper()
	sc, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	items, err := sc.Schedule(7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) > n {
		items = items[:n]
	}
	plays := make([]scenario.Record, len(items))
	for i, it := range items {
		if plays[i].Req, err = scenario.EncodeItem(it, format); err != nil {
			t.Fatal(err)
		}
	}
	return plays
}

// TestScenarioSweepMatrix runs the full 40-cell matrix at smoke size:
// every cell must verify its replay, every cell must complete, and the
// surface cells must exercise the fast path somewhere.
func TestScenarioSweepMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	r, report, err := ScenarioSweep(env(t), 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != 40 {
		t.Fatalf("%d cells, want 5 scenarios × (3 wires × 3 modes − binary+surface × cluster) = 40", len(report.Cells))
	}
	if report.Mismatches != 0 {
		t.Fatalf("%d replay mismatches across the matrix", report.Mismatches)
	}
	fastSeen := false
	for _, c := range report.Cells {
		if c.Requests == 0 {
			t.Fatalf("cell %s/%s/%s ran zero requests", c.Scenario, c.Wire, c.Mode)
		}
		if c.Wire == "binary+surface" && c.Mode == "cluster" {
			t.Fatalf("cell %s/binary+surface/cluster re-runs binary/cluster: replicas take no surface", c.Scenario)
		}
		if c.Wire == "binary+surface" && c.FastPct > 0 {
			fastSeen = true
		}
	}
	if !fastSeen {
		t.Fatal("no binary+surface cell exercised the fast path")
	}
	if !strings.Contains(r.Text, "binary+surface") || !strings.Contains(r.Text, "cluster") {
		t.Fatalf("matrix text missing axes:\n%s", r.Text)
	}
}
