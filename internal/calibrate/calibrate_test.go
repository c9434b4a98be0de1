package calibrate

import (
	"math"
	"strings"
	"testing"

	"contention/internal/core"
	"contention/internal/platform"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func fastOptions() Options {
	o := DefaultOptions(platform.DefaultParagonParams(platform.OneHop))
	o.BurstCount = 50
	o.Sizes = []int{32, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096}
	o.MaxContenders = 3
	o.ProbeWork = 0.5
	return o
}

func TestFitCommModelRecoversPlatformParameters(t *testing.T) {
	o := fastOptions()
	cal, _, err := RunRobust(o)
	if err != nil {
		t.Fatal(err)
	}
	model := cal.ToBack
	// The knee must land on the platform MTU.
	if model.Threshold != 1024 {
		t.Fatalf("threshold = %d, want 1024 (model %+v)", model.Threshold, model)
	}
	// Small-piece slope = conversion per word + 1/wire bandwidth.
	p := o.Params
	wantSlope := p.SendPerWord + 1/p.Link.Bandwidth
	if got := 1 / model.Small.Beta; math.Abs(got-wantSlope)/wantSlope > 0.05 {
		t.Fatalf("small-piece per-word cost %v, want ≈ %v", got, wantSlope)
	}
	// Small-piece intercept ≈ conversion startup + one packet overhead.
	wantAlpha := p.SendStartup + p.Link.PerPacket
	if math.Abs(model.Small.Alpha-wantAlpha)/wantAlpha > 0.15 {
		t.Fatalf("small-piece α %v, want ≈ %v", model.Small.Alpha, wantAlpha)
	}
	// Past the MTU every extra 1024 words costs another packet, so the
	// large piece's effective per-word cost exceeds the small piece's.
	if 1/model.Large.Beta <= 1/model.Small.Beta {
		t.Fatalf("large piece per-word cost %v not above small %v",
			1/model.Large.Beta, 1/model.Small.Beta)
	}
}

func TestFitCommModelToHostDirection(t *testing.T) {
	cal, _, err := RunRobust(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	model := cal.ToHost
	if model.Threshold != 1024 {
		t.Fatalf("to-host threshold = %d, want 1024", model.Threshold)
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureDelayTablesShape(t *testing.T) {
	o := fastOptions()
	cal, _, err := RunRobust(o)
	if err != nil {
		t.Fatal(err)
	}
	tables := cal.Tables
	if len(tables.CompOnComm) != o.MaxContenders || len(tables.CommOnComm) != o.MaxContenders {
		t.Fatalf("table lengths %d/%d, want %d", len(tables.CompOnComm), len(tables.CommOnComm), o.MaxContenders)
	}
	for _, j := range o.JGrid {
		if len(tables.CommOnComp[j]) != o.MaxContenders {
			t.Fatalf("CommOnComp[%d] length %d", j, len(tables.CommOnComp[j]))
		}
	}
	// delay^i_comp must grow with i (more hogs, more delay) and be near
	// the CPU-share prediction for the conversion stage: positive and
	// below i (only part of a message's cost is CPU work).
	prev := 0.0
	for i := 1; i <= o.MaxContenders; i++ {
		d := tables.CompOnComm[i-1]
		if d <= prev-0.05 {
			t.Fatalf("delay^%d_comp = %v not increasing (prev %v)", i, d, prev)
		}
		if d > float64(i) {
			t.Fatalf("delay^%d_comp = %v exceeds full CPU-share bound %d", i, d, i)
		}
		prev = d
	}
	// delay^{i,j} must increase with j up to the constant-delay regime.
	for i := 1; i <= o.MaxContenders; i++ {
		d1 := tables.CommOnComp[1][i-1]
		d500 := tables.CommOnComp[500][i-1]
		if d500 < d1-0.05 {
			t.Fatalf("delay^{%d,500} = %v below delay^{%d,1} = %v", i, d500, i, d1)
		}
	}
	if err := tables.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunProducesValidCalibration(t *testing.T) {
	o := fastOptions()
	cal, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Validate(); err != nil {
		t.Fatal(err)
	}
	if cal.Platform == "" {
		t.Fatal("platform label empty")
	}
	// End-to-end sanity: predictions scale dedicated costs up under load.
	pred, err := core.NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	sets := []core.DataSet{{N: 100, Words: 200}}
	ded, err := pred.DedicatedComm(core.HostToBack, sets)
	if err != nil {
		t.Fatal(err)
	}
	cs := []core.Contender{{CommFraction: 0.25, MsgWords: 200}, {CommFraction: 0.76, MsgWords: 200}}
	contended, err := pred.PredictComm(core.HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	if contended <= ded {
		t.Fatalf("contended prediction %v not above dedicated %v", contended, ded)
	}
}

func TestOptionsValidation(t *testing.T) {
	params := platform.DefaultParagonParams(platform.OneHop)
	bad := []Options{
		{Params: params, BurstCount: 1, Sizes: []int{1, 2, 3, 4}, MaxContenders: 1, JGrid: []int{1}, ProbeWords: 1, ProbeWork: 1},
		{Params: params, BurstCount: 10, Sizes: []int{1, 2}, MaxContenders: 1, JGrid: []int{1}, ProbeWords: 1, ProbeWork: 1},
		{Params: params, BurstCount: 10, Sizes: []int{1, 2, 3, 4}, MaxContenders: 0, JGrid: []int{1}, ProbeWords: 1, ProbeWork: 1},
		{Params: params, BurstCount: 10, Sizes: []int{1, 2, 3, 4}, MaxContenders: 1, JGrid: nil, ProbeWords: 1, ProbeWork: 1},
		{Params: params, BurstCount: 10, Sizes: []int{1, 2, 3, 4}, MaxContenders: 1, JGrid: []int{1}, ProbeWords: 0, ProbeWork: 1},
		{Params: params, BurstCount: 10, Sizes: []int{1, 2, 3, 4}, MaxContenders: 1, JGrid: []int{1}, ProbeWords: 1, ProbeWork: 1, Warmup: -1},
	}
	for i, o := range bad {
		if _, err := Run(o); err == nil {
			t.Errorf("case %d did not error", i)
		}
	}
	// A bad grid entry would otherwise panic inside a probe, on a pool
	// goroutine, or silently measure one point twice.
	for _, c := range []struct {
		field string
		mod   func(*Options)
	}{
		{"JGrid", func(o *Options) { o.JGrid = []int{0, 500} }},
		{"JGrid", func(o *Options) { o.JGrid = []int{500, -1} }},
		{"JGrid", func(o *Options) { o.JGrid = []int{500, 500} }},
		{"Sizes", func(o *Options) { o.Sizes = []int{-16, 32, 64, 128} }},
		{"Sizes", func(o *Options) { o.Sizes = []int{16, 32, 0, 128} }},
		{"Sizes", func(o *Options) { o.Sizes = []int{16, 32, 64, 32} }},
	} {
		o := fastOptions()
		c.mod(&o)
		_, err := Run(o)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s %v / %v: error %v does not name %s", c.field, o.Sizes, o.JGrid, err, c.field)
		}
	}
}

func TestCalibrateCM2RecoversParameters(t *testing.T) {
	params := platform.DefaultCM2Params()
	model, err := CalibrateCM2(DefaultCM2Options(params))
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: per-message CPU work α = XferStartup,
	// per-word 1/β = XferPerWord (host speed 1).
	wantBeta := 1 / params.XferPerWord
	if math.Abs(model.Small.Beta-wantBeta)/wantBeta > 0.01 {
		t.Fatalf("β = %v, want ≈ %v", model.Small.Beta, wantBeta)
	}
	if math.Abs(model.Small.Alpha-params.XferStartup)/params.XferStartup > 0.05 {
		t.Fatalf("α = %v, want ≈ %v", model.Small.Alpha, params.XferStartup)
	}
}

func TestCalibrateCM2Validation(t *testing.T) {
	params := platform.DefaultCM2Params()
	params.HostSpeed = 0
	if _, err := CalibrateCM2(DefaultCM2Options(params)); err == nil {
		t.Fatal("platform with zero host speed accepted")
	}
}

// BenchmarkRun is one default Sun/Paragon calibration, the cost every
// experiments.Env pays once.
func BenchmarkRun(b *testing.B) {
	o := DefaultOptions(platform.DefaultParagonParams(platform.OneHop))
	for i := 0; i < b.N; i++ {
		if _, err := Run(o); err != nil {
			b.Fatal(err)
		}
	}
}
