package monitor

import (
	"errors"
	"math"
	"testing"

	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/workload"
)

func newSP(t *testing.T) (*des.Kernel, *platform.SunParagon) {
	t.Helper()
	k := des.New()
	sp, err := platform.NewSunParagon(k, platform.DefaultParagonParams(platform.OneHop))
	if err != nil {
		t.Fatal(err)
	}
	return k, sp
}

func TestNewValidation(t *testing.T) {
	_, sp := newSP(t)
	if _, err := New(sp, 0, 10); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := New(sp, 0.1, 1); err == nil {
		t.Fatal("maxKeep 1 accepted")
	}
}

func TestEstimateRequiresSamples(t *testing.T) {
	_, sp := newSP(t)
	m, err := New(sp, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstimateWindow(1); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("error = %v, want ErrInsufficientData", err)
	}
}

func TestEstimateIdleSystem(t *testing.T) {
	k, sp := newSP(t)
	m, err := New(sp, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.RunUntil(5)
	est, err := m.EstimateWindow(5)
	if err != nil {
		t.Fatal(err)
	}
	if est.HostUtilization != 0 || est.LinkUtilization != 0 || est.Apps != 0 {
		t.Fatalf("idle estimate %+v", est)
	}
	if len(est.Contenders(0)) != 0 {
		t.Fatal("idle system produced contenders")
	}
}

func TestEstimateCPUBoundHogs(t *testing.T) {
	k, sp := newSP(t)
	workload.SpawnCPUHog(sp, "h1")
	workload.SpawnCPUHog(sp, "h2")
	m, err := New(sp, 0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.RunUntil(10)
	est, err := m.EstimateWindow(10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.HostUtilization-1) > 0.01 {
		t.Fatalf("host utilization %v, want ≈ 1", est.HostUtilization)
	}
	if math.Abs(est.AvgHostJobs-2) > 0.05 {
		t.Fatalf("avg jobs %v, want ≈ 2", est.AvgHostJobs)
	}
	if est.Apps != 2 {
		t.Fatalf("apps %d, want 2", est.Apps)
	}
	cs := est.Contenders(0)
	if len(cs) != 2 {
		t.Fatalf("contenders %v", cs)
	}
	if cs[0].CommFraction > 0.05 {
		t.Fatalf("CPU hogs estimated with comm fraction %v", cs[0].CommFraction)
	}
}

func TestEstimateObservesMessageSize(t *testing.T) {
	k, sp := newSP(t)
	if _, err := workload.SpawnAlternator(sp, workload.AlternatorSpec{
		Name: "alt", CommFraction: 0.5, MsgWords: 300, Period: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := New(sp, 0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.RunUntil(20)
	est, err := m.EstimateWindow(20)
	if err != nil {
		t.Fatal(err)
	}
	if est.MeanMsgWords != 300 {
		t.Fatalf("mean message size %d, want 300", est.MeanMsgWords)
	}
	if est.MessageRate <= 0 {
		t.Fatal("zero message rate with an active alternator")
	}
	if est.Apps != 1 {
		t.Fatalf("apps %d, want 1", est.Apps)
	}
}

// The headline property: a slowdown computed from the ESTIMATED
// contender set tracks the slowdown computed from the true descriptors.
func TestEstimatedContendersPredictSimilarSlowdown(t *testing.T) {
	k, sp := newSP(t)
	true1 := workload.AlternatorSpec{Name: "a", CommFraction: 0.25, MsgWords: 200, Period: 0.1, Phase: 0.017}
	true2 := workload.AlternatorSpec{Name: "b", CommFraction: 0.76, MsgWords: 200, Period: 0.1, Phase: 0.031}
	for _, s := range []workload.AlternatorSpec{true1, true2} {
		if _, err := workload.SpawnAlternator(sp, s); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(sp, 0.05, 10000)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.RunUntil(30)
	est, err := m.EstimateWindow(30)
	if err != nil {
		t.Fatal(err)
	}
	if est.Apps != 2 {
		t.Fatalf("apps %d, want 2 (estimate %+v)", est.Apps, est)
	}
	tables := core.DelayTables{
		CompOnComm: []float64{0.4, 0.8},
		CommOnComm: []float64{0.3, 0.6},
		CommOnComp: map[int][]float64{200: {0.5, 1.0}},
	}
	trueCS := []core.Contender{
		{CommFraction: 0.25, MsgWords: 200},
		{CommFraction: 0.76, MsgWords: 200},
	}
	wantComm, err := core.CommSlowdown(trueCS, tables)
	if err != nil {
		t.Fatal(err)
	}
	gotComm, err := core.CommSlowdown(est.Contenders(0), tables)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotComm-wantComm)/wantComm > 0.15 {
		t.Fatalf("estimated slowdown %v vs true %v (>15%%)", gotComm, wantComm)
	}
}

func TestSamplesAreBounded(t *testing.T) {
	k, sp := newSP(t)
	m, err := New(sp, 0.01, 10)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.RunUntil(5)
	if n := len(m.Samples()); n > 10 {
		t.Fatalf("kept %d samples, cap is 10", n)
	}
}

func TestContendersExcludesSelf(t *testing.T) {
	e := Estimate{Apps: 3, CommFraction: 0.4, MeanMsgWords: 100}
	if got := len(e.Contenders(1)); got != 2 {
		t.Fatalf("Contenders(1) = %d, want 2", got)
	}
	if got := len(e.Contenders(5)); got != 0 {
		t.Fatalf("Contenders(5) = %d, want 0", got)
	}
}

func TestEstimateWindowValidation(t *testing.T) {
	k, sp := newSP(t)
	m, err := New(sp, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.RunUntil(1)
	for _, w := range []float64{0, -1, math.NaN()} {
		if _, err := m.EstimateWindow(w); !errors.Is(err, ErrInvalidWindow) {
			t.Fatalf("window %v: err = %v, want ErrInvalidWindow", w, err)
		}
	}
}

func TestEstimateWindowLargerThanHistory(t *testing.T) {
	// maxKeep 5 at 0.1s spacing retains ~0.4s; asking for a 100s window
	// must fall back to the oldest retained sample, not fail.
	k, sp := newSP(t)
	m, err := New(sp, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	workload.SpawnCPUHog(sp, "hog")
	m.Start()
	k.RunUntil(3)
	est, err := m.EstimateWindow(100)
	if err != nil {
		t.Fatal(err)
	}
	if est.Window <= 0 || est.Window > 0.5 {
		t.Fatalf("window %v, want the ~0.4s of retained history", est.Window)
	}
	if est.HostUtilization < 0.99 {
		t.Fatalf("utilization %v under a CPU hog", est.HostUtilization)
	}
}

func TestEstimateWindowZeroSpan(t *testing.T) {
	// Two samples at the same instant: zero span is insufficient data,
	// not a division by zero.
	k, sp := newSP(t)
	m, err := New(sp, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	m.record()
	m.record()
	_ = k
	if _, err := m.EstimateWindow(1); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v, want ErrInsufficientData on zero span", err)
	}
}

func TestLossFuncDropsSamplesButEstimatesSurvive(t *testing.T) {
	k, sp := newSP(t)
	m, err := New(sp, 0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	workload.SpawnCPUHog(sp, "hog")
	n := 0
	m.SetLossFunc(func() bool {
		n++
		return n%2 == 0 // every other sample lost
	})
	m.Start()
	k.RunUntil(5)
	if m.Dropped() == 0 {
		t.Fatal("no samples dropped")
	}
	if len(m.Samples())+m.Dropped() != n {
		t.Fatalf("samples %d + dropped %d != attempts %d", len(m.Samples()), m.Dropped(), n)
	}
	// Cumulative counters keep gappy-window estimates exact.
	est, err := m.EstimateWindow(4)
	if err != nil {
		t.Fatal(err)
	}
	if est.HostUtilization < 0.99 {
		t.Fatalf("utilization %v under a CPU hog with sample loss", est.HostUtilization)
	}
}

func TestEstimateRejectsNonFiniteSamples(t *testing.T) {
	_, sp := newSP(t)
	m, err := New(sp, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	finite := Sample{At: 1, HostBusy: 0.5, HostLoadInt: 0.5, LinkBusy: 0.2}
	corrupt := []Sample{
		{At: 0, HostBusy: math.NaN()},
		{At: 0, HostLoadInt: math.Inf(1)},
		{At: 0, LinkBusy: math.Inf(-1)},
	}
	for i, bad := range corrupt {
		m.samples = []Sample{bad, finite}
		if _, err := m.EstimateWindow(10); !errors.Is(err, ErrNonFiniteSample) {
			t.Errorf("case %d (corrupt first): error = %v, want ErrNonFiniteSample", i, err)
		}
		badLast := bad
		badLast.At = 2
		m.samples = []Sample{{At: 0}, badLast}
		if _, err := m.EstimateWindow(10); !errors.Is(err, ErrNonFiniteSample) {
			t.Errorf("case %d (corrupt last): error = %v, want ErrNonFiniteSample", i, err)
		}
	}
	// A NaN timestamp never matches the window cutoff; the final sample's
	// own check must still catch it.
	m.samples = []Sample{{At: 0}, {At: math.NaN()}}
	if _, err := m.EstimateWindow(10); !errors.Is(err, ErrNonFiniteSample) {
		t.Errorf("NaN timestamp: error = %v, want ErrNonFiniteSample", err)
	}
}

func TestClamp01NaNSafe(t *testing.T) {
	if got := clamp01(math.NaN()); got != 0 {
		t.Fatalf("clamp01(NaN) = %v, want 0", got)
	}
	if got := clamp01(math.Inf(1)); got != 1 {
		t.Fatalf("clamp01(+Inf) = %v, want 1", got)
	}
	if got := clamp01(math.Inf(-1)); got != 0 {
		t.Fatalf("clamp01(-Inf) = %v, want 0", got)
	}
}
