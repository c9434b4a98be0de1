package calibrate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"contention/internal/core"
	"contention/internal/platform"
	"contention/internal/stats"
)

func robustOptions() Options {
	o := fastOptions()
	o.MaxContenders = 2
	o.Repeats = 3
	o.BootstrapResamples = 60
	return o
}

func checkInterval(t *testing.T, name string, iv stats.Interval, point float64) {
	t.Helper()
	if iv.Lo > iv.Hi {
		t.Fatalf("%s: interval inverted [%v, %v]", name, iv.Lo, iv.Hi)
	}
	// Degenerate (zero-width) intervals are legitimate when every repeat
	// agrees — the simulator is deterministic for uncontended probes —
	// but a non-degenerate interval must bracket its point estimate.
	if iv.Hi > iv.Lo && (point < iv.Lo || point > iv.Hi) {
		t.Fatalf("%s: point %v outside CI [%v, %v]", name, point, iv.Lo, iv.Hi)
	}
}

func TestRunRobustProducesIntervals(t *testing.T) {
	o := robustOptions()
	cal, conf, err := RunRobust(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Validate(); err != nil {
		t.Fatal(err)
	}
	if conf.Repeats != 3 || conf.Level != o.Confidence {
		t.Fatalf("confidence metadata %+v", conf)
	}

	checkInterval(t, "ToBack.Small.Alpha", conf.ToBack.Small.Alpha, cal.ToBack.Small.Alpha)
	checkInterval(t, "ToBack.Small.Beta", conf.ToBack.Small.Beta, cal.ToBack.Small.Beta)
	checkInterval(t, "ToBack.Large.Alpha", conf.ToBack.Large.Alpha, cal.ToBack.Large.Alpha)
	checkInterval(t, "ToBack.Large.Beta", conf.ToBack.Large.Beta, cal.ToBack.Large.Beta)
	checkInterval(t, "ToHost.Small.Beta", conf.ToHost.Small.Beta, cal.ToHost.Small.Beta)

	if len(conf.CompOnComm) != o.MaxContenders || len(conf.CommOnComm) != o.MaxContenders {
		t.Fatalf("delay CI lengths %d/%d, want %d",
			len(conf.CompOnComm), len(conf.CommOnComm), o.MaxContenders)
	}
	for i := range conf.CompOnComm {
		checkInterval(t, "CompOnComm", conf.CompOnComm[i], cal.Tables.CompOnComm[i])
		checkInterval(t, "CommOnComm", conf.CommOnComm[i], cal.Tables.CommOnComm[i])
	}
	for _, j := range o.JGrid {
		col, ok := conf.CommOnComp[j]
		if !ok || len(col) != o.MaxContenders {
			t.Fatalf("CommOnComp[%d] CI column missing or short: %v", j, col)
		}
		for i := range col {
			checkInterval(t, "CommOnComp", col[i], cal.Tables.CommOnComp[j][i])
		}
	}
}

func TestRunRobustDeterministicForFixedSeed(t *testing.T) {
	o := robustOptions()
	if a, b := calibrationDigest(t, o), calibrationDigest(t, o); a != b {
		t.Fatalf("identical runs differ: %s vs %s", a, b)
	}
}

// calibrationDigest is the SHA-256 of the JSON of RunRobust's
// (Calibration, Confidence): every fitted bit and every interval bound.
func calibrationDigest(t *testing.T, o Options) string {
	t.Helper()
	cal, conf, err := RunRobust(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Cal  core.Calibration
		Conf *Confidence
	}{cal, conf})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCalibrationMatchesParent pins the suite's output bit for bit. The
// digests were recorded from the serial suite, before its probes ran on
// a pool and before a one-sample bootstrap stopped refitting; both runs
// below, the second with GOMAXPROCS 1 (a serial pool), must reproduce
// them.
func TestCalibrationMatchesParent(t *testing.T) {
	withRepeats := func(mode platform.HopMode, r int) Options {
		o := DefaultOptions(platform.DefaultParagonParams(mode))
		o.Repeats = r
		return o
	}
	// The calibration-drift experiment's recalibration: its reduced grid
	// on the platform with 30 % of the wire bandwidth.
	recal := DefaultOptions(platform.DefaultParagonParams(platform.OneHop))
	recal.Params.Link.Bandwidth *= 0.30
	recal.BurstCount = 50
	recal.Sizes = []int{32, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096}
	recal.MaxContenders = 3
	recal.ProbeWork = 0.5
	recal.Repeats = 2
	recal.BootstrapResamples = 50
	cases := []struct {
		name, digest string
		o            Options
	}{
		{"1hop-r1", "f0f578afea478a4fed894c9abe62c570e0a3eeaa449de31f4c540f3b2055f84f", withRepeats(platform.OneHop, 1)},
		{"1hop-r3", "2a3f0c3313518ed8ad5df69c17ef6e189440953790da1a3ce613a2ee16b25ae6", withRepeats(platform.OneHop, 3)},
		{"2hops-r1", "adacabbe8fdeff39b857ad6efa3ee14fbc5c66a1a733994d513a45f507ec6cf7", withRepeats(platform.TwoHops, 1)},
		{"2hops-r3", "b97e25084293d6ac064a6ed56ae3240674881845b8fb69b5e87e81b39417a57a", withRepeats(platform.TwoHops, 3)},
		{"caldrift-recal", "8d16484e7fcbb94794f001ce774ea1f5b94ad4bbc15faeab9016bab30635f312", recal},
	}
	check := func(pool string) {
		for _, c := range cases {
			if got := calibrationDigest(t, c.o); got != c.digest {
				t.Errorf("%s, %s pool: digest %s, want %s", c.name, pool, got, c.digest)
			}
		}
	}
	check("default")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check("serial")
}

func TestPlanListsEachProbeOnce(t *testing.T) {
	o := DefaultOptions(platform.DefaultParagonParams(platform.OneHop))
	// 2×17 α/β bursts, the dedicated burst (already the S→P 256-word α/β
	// point) and CPU-bound run, 4×3 contended bursts, 3×4×2 j-probes.
	if n := len(o.plan()); n != 71 {
		t.Fatalf("default plan holds %d probes, want 71", n)
	}
	o.Repeats = 3
	plan := o.plan()
	seen := map[probe]bool{}
	for _, p := range plan {
		if seen[p] {
			t.Fatalf("probe %+v listed twice", p)
		}
		seen[p] = true
	}
	if len(plan) != 3*71 {
		t.Fatalf("plan at 3 repeats holds %d probes, want %d", len(plan), 3*71)
	}
	o.ProbeWords = 300 // not an α/β point: nothing to share
	o.Repeats = 1
	if n := len(o.plan()); n != 72 {
		t.Fatalf("plan with an off-grid probe size holds %d probes, want 72", n)
	}
}

func TestRunRobustSingleRepeatMatchesRun(t *testing.T) {
	// With Repeats = 1 every bootstrap replicate is the point estimate,
	// so every interval collapses onto its parameter (to within the
	// quantile interpolation's rounding), and Run is RunRobust's
	// calibration.
	o := fastOptions()
	single, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	cal, conf, err := RunRobust(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, cal) {
		t.Fatalf("Run %+v differs from RunRobust %+v", single, cal)
	}
	collapsed := func(name string, iv stats.Interval, v float64) {
		t.Helper()
		if tol := 1e-12 * math.Abs(v); math.Abs(iv.Lo-v) > tol || math.Abs(iv.Hi-v) > tol {
			t.Errorf("%s: interval [%v, %v] not collapsed onto %v", name, iv.Lo, iv.Hi, v)
		}
	}
	collapsed("ToBack.Small.Beta", conf.ToBack.Small.Beta, cal.ToBack.Small.Beta)
	collapsed("ToHost.Large.Alpha", conf.ToHost.Large.Alpha, cal.ToHost.Large.Alpha)
	for i, iv := range conf.CommOnComm {
		collapsed("CommOnComm", iv, cal.Tables.CommOnComm[i])
	}
	for j, col := range conf.CommOnComp {
		for i, iv := range col {
			collapsed("CommOnComp", iv, cal.Tables.CommOnComp[j][i])
		}
	}
	pred, err := core.NewPredictor(single)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Stale() != "" {
		t.Fatal("fresh calibration marked stale")
	}
}

func TestRobustOptionValidation(t *testing.T) {
	for _, mod := range []func(*Options){
		func(o *Options) { o.Repeats = -1 },
		func(o *Options) { o.TrimFraction = -0.1 },
		func(o *Options) { o.TrimFraction = 0.5 },
		func(o *Options) { o.Confidence = 1.0 },
		func(o *Options) { o.Confidence = -0.2 },
	} {
		o := fastOptions()
		mod(&o)
		if _, _, err := RunRobust(o); err == nil {
			t.Errorf("invalid robust option accepted: %+v", o)
		}
	}
}
