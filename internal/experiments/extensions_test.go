package experiments

import (
	"testing"
)

func TestIOCharacteristicsExtendedModelWins(t *testing.T) {
	r, err := IOCharacteristics(env(t))
	if err != nil {
		t.Fatal(err)
	}
	ext := r.ModelErrPct["extended"]
	naive := r.ModelErrPct["naive"]
	if ext > 10 {
		t.Fatalf("extended-model error %.1f%%, want < 10%%", ext)
	}
	if naive < ext+20 {
		t.Fatalf("naive p+1 error %.1f%% should grossly exceed extended %.1f%%", naive, ext)
	}
	// The contenders are mostly I/O-bound: actual slowdown well under p+1.
	ded, _ := r.seriesByName("dedicated")
	act, _ := r.seriesByName("actual")
	for i := range ded.Y {
		ratio := act.Y[i] / ded.Y[i]
		if ratio < 1.3 || ratio > 2.2 {
			t.Fatalf("M=%v: slowdown %.2f outside (1.3,2.2) for 2 I/O-bound contenders", ded.X[i], ratio)
		}
	}
}

func TestPhasedContentionBeatsStatic(t *testing.T) {
	r, err := PhasedContention(env(t))
	if err != nil {
		t.Fatal(err)
	}
	phased := r.ModelErrPct["phased"]
	static := r.ModelErrPct["static"]
	if phased > 10 {
		t.Fatalf("phased-model error %.1f%%, want < 10%%", phased)
	}
	if phased >= static {
		t.Fatalf("phased error %.1f%% should beat static %.1f%%", phased, static)
	}
}

func TestMultiMachineWithinBand(t *testing.T) {
	r, err := MultiMachine(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ModelErrPct["split"]; got > 15 {
		t.Fatalf("split-placement error %.1f%%, want ≤ 15%% (the paper's band)", got)
	}
	if got := r.ModelErrPct["same"]; got > 20 {
		t.Fatalf("same-link error %.1f%%, want ≤ 20%%", got)
	}
	// Same-link placement must cost at least as much as split at small
	// message sizes (the target wire is shared there).
	same, _ := r.seriesByName("actual same")
	split, _ := r.seriesByName("actual split")
	if same.Y[0] <= split.Y[0] {
		t.Fatalf("same-link %.3f not above split %.3f at %v words", same.Y[0], split.Y[0], same.X[0])
	}
}

func TestExtensionsAggregator(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	results, err := extensions(env(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"synthetic", "iochar", "phased", "multimachine", "offload", "faulttolerance", "caldrift", "scenarioreplay"}
	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.ID != want[i] {
			t.Fatalf("result %d = %q, want %q", i, r.ID, want[i])
		}
	}
}

func TestOffloadDecisionAccuracy(t *testing.T) {
	r, err := OffloadDecision(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ModelErrPct["sun"]; got > 15 {
		t.Fatalf("sun-side error %.1f%%, want ≤ 15%%", got)
	}
	if got := r.ModelErrPct["offload"]; got > 15 {
		t.Fatalf("offload-side error %.1f%%, want ≤ 15%%", got)
	}
	// Every size must be decided correctly, and both regimes must occur.
	sun, _ := r.seriesByName("actual sun")
	off, _ := r.seriesByName("actual offload")
	sunWins, offWins := 0, 0
	for i := range sun.Y {
		if sun.Y[i] < off.Y[i] {
			sunWins++
		} else {
			offWins++
		}
	}
	if sunWins == 0 || offWins == 0 {
		t.Fatalf("no crossover: sunWins=%d offWins=%d", sunWins, offWins)
	}
	found := false
	for _, n := range r.Notes {
		if n == "decision accuracy: 8/8 sizes decided correctly" {
			found = true
		}
	}
	if !found {
		t.Fatalf("decisions not all correct: %v", r.Notes)
	}
}

func TestFaultToleranceSmoothDegradation(t *testing.T) {
	r, err := FaultTolerance(env(t))
	if err != nil {
		t.Fatal(err)
	}
	act, ok := r.seriesByName("actual")
	if !ok {
		t.Fatal("no actual series")
	}
	errs, ok := r.seriesByName("model err %")
	if !ok {
		t.Fatal("no error series")
	}
	// The clean point must be the paper-accuracy regime; each added
	// fault intensity must slow the burst further, growing the
	// fault-blind model's error monotonically — degradation, not
	// collapse.
	if errs.Y[0] > 10 {
		t.Fatalf("clean-run model error %.1f%%, want < 10%%", errs.Y[0])
	}
	for i := 1; i < len(act.Y); i++ {
		if act.Y[i] <= act.Y[i-1] {
			t.Fatalf("rate %v: elapsed %.4g not above %.4g at rate %v",
				act.X[i], act.Y[i], act.Y[i-1], act.X[i-1])
		}
		if errs.Y[i] <= errs.Y[i-1] {
			t.Fatalf("rate %v: model error %.1f%% not above %.1f%%",
				errs.X[i], errs.Y[i], errs.Y[i-1])
		}
	}
	// The conservative p+1 fallback must bound the faulty measurements
	// from above across the sweep — pessimistic, never optimistic.
	deg, ok := r.seriesByName("degraded(p+1)")
	if !ok {
		t.Fatal("no degraded series")
	}
	for i := range act.Y {
		if act.Y[i] > deg.Y[i] {
			t.Fatalf("rate %v: actual %.4g exceeds degraded bound %.4g", act.X[i], act.Y[i], deg.Y[i])
		}
	}
}

func TestCalibrationDriftDetectAndRecover(t *testing.T) {
	r, err := CalibrationDrift(env(t))
	if err != nil {
		t.Fatal(err)
	}
	pre := r.ModelErrPct["pre-drift"]
	during := r.ModelErrPct["undetected-drift"]
	post := r.ModelErrPct["post-recal"]
	// Pre-drift the model is in its paper-accuracy regime.
	if pre > 10 {
		t.Fatalf("pre-drift error %.1f%%, want < 10%%", pre)
	}
	// The injected bandwidth drop must visibly break the model...
	if during < pre+15 {
		t.Fatalf("drifted error %.1f%% barely above pre-drift %.1f%% — drift too weak to test detection", during, pre)
	}
	// ...and recalibration must restore pre-drift accuracy.
	if post > 10 {
		t.Fatalf("post-recalibration error %.1f%%, want < 10%%", post)
	}
	if post > during/2 {
		t.Fatalf("post-recalibration error %.1f%% did not recover from drifted %.1f%%", post, during)
	}
	// The residual series must show the jump at the injection window and
	// the collapse after adoption.
	resid, ok := r.seriesByName("residual")
	if !ok {
		t.Fatal("no residual series")
	}
	if len(resid.Y) != caldriftWindows {
		t.Fatalf("%d residual windows, want %d", len(resid.Y), caldriftWindows)
	}
	if abs := resid.Y[caldriftInjectAt]; abs < 0.15 {
		t.Fatalf("injection-window residual %.3f, want a clear jump", abs)
	}
	last := resid.Y[len(resid.Y)-1]
	if last > 0.1 || last < -0.1 {
		t.Fatalf("final residual %.3f still large after recalibration", last)
	}
}
