package contention_test

import (
	"math"
	"testing"

	"contention"
)

// The facade tests exercise the public API end to end the way a
// downstream scheduler would use it.

func facadeCalibration(t *testing.T) contention.Calibration {
	t.Helper()
	params := contention.DefaultParagonParams(contention.OneHop)
	opts := contention.DefaultCalibrationOptions(params)
	opts.BurstCount = 50
	opts.MaxContenders = 3
	cal, err := contention.Calibrate(opts)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	return cal
}

func TestFacadeCalibrateAndPredict(t *testing.T) {
	cal := facadeCalibration(t)
	if cal.ToBack.Threshold != 1024 {
		t.Fatalf("threshold %d, want 1024", cal.ToBack.Threshold)
	}
	pred, err := contention.NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	sets := []contention.DataSet{{N: 100, Words: 200}}
	ded, err := pred.DedicatedComm(contention.HostToBack, sets)
	if err != nil {
		t.Fatal(err)
	}
	cs := []contention.Contender{{CommFraction: 0.5, MsgWords: 200}}
	got, err := pred.PredictComm(contention.HostToBack, sets, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got <= ded {
		t.Fatalf("contended %v not above dedicated %v", got, ded)
	}
}

func TestFacadeSlowdownFunctions(t *testing.T) {
	if got, err := contention.SimpleSlowdown(3); err != nil || got != 4 {
		t.Fatalf("SimpleSlowdown(3) = %v, %v", got, err)
	}
	if got, err := contention.CM2ExecTime(1, 0.5, 3, 2); err != nil || got != 9 {
		t.Fatalf("CM2ExecTime = %v, %v, want 9", got, err)
	}
	// The façade rejects invalid inputs with errors, never panics.
	if _, err := contention.SimpleSlowdown(-1); err == nil {
		t.Fatal("SimpleSlowdown(-1) accepted")
	}
	if _, err := contention.CM2ExecTime(-1, 0, 0, 0); err == nil {
		t.Fatal("CM2ExecTime with negative dcomp accepted")
	}
	if _, err := contention.CM2ExecTime(1, 0, 0, -2); err == nil {
		t.Fatal("CM2ExecTime with negative p accepted")
	}
	if !contention.ShouldOffload(10, 2, 3, 3) {
		t.Fatal("ShouldOffload(10,2,3,3) = false")
	}
	tables := contention.DelayTables{}
	s, err := contention.CommSlowdown(nil, tables)
	if err != nil || s != 1 {
		t.Fatalf("empty CommSlowdown = %v, %v", s, err)
	}
	s, err = contention.CompSlowdown([]contention.Contender{{}, {}}, tables)
	if err != nil || s != 3 {
		t.Fatalf("CPU-bound CompSlowdown = %v, %v", s, err)
	}
	if _, err := contention.CompSlowdownWithJ(nil, tables, 500); err != nil {
		t.Fatalf("CompSlowdownWithJ: %v", err)
	}
}

func TestFacadeSimulationRoundTrip(t *testing.T) {
	k := contention.NewKernel()
	sp, err := contention.NewSunParagon(k, contention.DefaultParagonParams(contention.OneHop))
	if err != nil {
		t.Fatal(err)
	}
	contention.SpawnPingEcho(sp, "x")
	contention.SpawnCPUHog(sp, "hog")
	if _, err := contention.SpawnAlternator(sp, contention.AlternatorSpec{
		Name: "alt", CommFraction: 0.3, MsgWords: 100, Period: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	var elapsed float64
	k.Spawn("bench", func(p *contention.Proc) {
		if _, err := contention.PingPongBurst(p, sp, "x", 0, 100); err == nil {
			t.Error("zero-count burst accepted")
		}
		if _, err := contention.PingPongBurst(p, nil, "x", 20, 100); err == nil {
			t.Error("nil platform accepted")
		}
		var err error
		elapsed, err = contention.PingPongBurst(p, sp, "x", 20, 100)
		if err != nil {
			t.Error(err)
		}
		k.Stop()
	})
	k.Run()
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestFacadeCM2RoundTrip(t *testing.T) {
	k := contention.NewKernel()
	plat, err := contention.NewSunCM2(k, contention.DefaultCM2Params())
	if err != nil {
		t.Fatal(err)
	}
	prog := contention.GaussCM2Program(80)
	var elapsed, busy, idle float64
	k.Spawn("g", func(p *contention.Proc) {
		elapsed, busy, idle = contention.RunCM2(p, plat, prog)
	})
	k.Run()
	if elapsed <= 0 || busy <= 0 || idle < 0 {
		t.Fatalf("run stats %v/%v/%v", elapsed, busy, idle)
	}
}

func TestFacadeApplications(t *testing.T) {
	grid, err := contention.MakeLaplaceGrid(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := contention.SORSolve(grid, 1.4, 50); err != nil {
		t.Fatal(err)
	}
	a, b := contention.MakeDiagonallyDominant(6)
	x, err := contention.GaussSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[5]-6) > 1e-8 {
		t.Fatalf("x[5] = %v", x[5])
	}
	if contention.SORWork(102, 10) <= 0 {
		t.Fatal("SORWork non-positive")
	}
}

func TestFacadeScheduler(t *testing.T) {
	p := contention.PaperExample()
	best, err := p.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Makespan != 16 {
		t.Fatalf("makespan %v", best.Makespan)
	}
	slowdown, err := contention.SimpleSlowdown(2)
	if err != nil {
		t.Fatal(err)
	}
	adjusted := p.ScaleExec("M1", slowdown).ScaleComm(3)
	best, err = adjusted.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Makespan != 48 {
		t.Fatalf("adjusted makespan %v", best.Makespan)
	}
}

func TestFacadeExtensions(t *testing.T) {
	phases := []contention.Phase{
		{Duration: 2, Contenders: []contention.Contender{{}}},
		{Contenders: nil},
	}
	if _, err := contention.PredictCommPhased(3, phases, contention.DelayTables{}); err != nil {
		t.Fatal(err)
	}
	tagged := []contention.MultiContender{
		{Contender: contention.Contender{CommFraction: 1, MsgWords: 500}, Link: 1},
	}
	tables := contention.DelayTables{
		CompOnComm: []float64{0.5},
		CommOnComp: map[int][]float64{500: {0.6}},
	}
	ms, err := contention.CommSlowdownMulti(0, tagged, tables)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms-(1+0.6*0.5)) > 1e-12 {
		t.Fatalf("CommSlowdownMulti = %v", ms)
	}
}

func TestFacadeMultiPlatform(t *testing.T) {
	k := contention.NewKernel()
	legs, err := contention.NewSunMultiParagon(k, contention.DefaultParagonParams(contention.OneHop), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(legs) != 2 || legs[0].Host != legs[1].Host {
		t.Fatal("legs malformed")
	}
}

func TestFacadeRuntimeInfrastructure(t *testing.T) {
	k := contention.NewKernel()
	sp, err := contention.NewSunParagon(k, contention.DefaultParagonParams(contention.OneHop))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := contention.NewMonitor(sp, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	contention.SpawnCPUHog(sp, "hog")
	k.Spawn("app", func(p *contention.Proc) {
		p.Delay(5)
		k.Stop()
	})
	k.Run()
	est, err := mon.EstimateWindow(5)
	if err != nil {
		t.Fatal(err)
	}
	if est.HostUtilization < 0.9 {
		t.Fatalf("host utilization %v with a hog, want ≈ 1", est.HostUtilization)
	}
}
