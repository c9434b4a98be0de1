package faults

import (
	"testing"

	"contention/internal/cpu"
	"contention/internal/des"
	"contention/internal/monitor"
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

// runScenario drives a fixed traffic pattern under the full fault
// composition and returns the injector plus the observables a
// reproducibility check compares.
func runScenario(t *testing.T, seed int64) (*Injector, float64, int, int) {
	t.Helper()
	k, sp := newSP(t)
	mon, err := monitor.New(sp, 0.05, 1000)
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	in := NewInjector(k, seed)
	churn := 0
	err = in.Arm(
		LinkFaults{Link: sp.Link, DropProb: 0.2, CorruptProb: 0.1},
		HostStalls{Host: sp.Host, MeanSpacing: 0.4, MeanDuration: 0.05},
		CrashRestart{Host: sp.Host, MTBF: 2, Downtime: 0.1},
		ContenderChurn{MeanSpacing: 0.5, Perturb: func() { churn++ }},
		SampleLoss{Monitor: mon, DropProb: 0.3},
	)
	if err != nil {
		t.Fatal(err)
	}
	workload.SpawnPingEcho(sp, "x")
	elapsed := -1.0
	k.Spawn("bench", func(p *des.Proc) {
		elapsed = workload.PingPongBurst(p, sp, "x", 200, 256)
		k.Stop()
	})
	k.Run()
	if elapsed < 0 {
		t.Fatal("burst did not finish")
	}
	return in, elapsed, churn, mon.Dropped()
}

func TestSeededInjectionIsReproducible(t *testing.T) {
	in1, e1, c1, d1 := runScenario(t, 7)
	in2, e2, c2, d2 := runScenario(t, 7)
	if e1 != e2 {
		t.Fatalf("elapsed differs for same seed: %v vs %v", e1, e2)
	}
	if c1 != c2 || d1 != d2 {
		t.Fatalf("side effects differ: churn %d/%d, dropped %d/%d", c1, c2, d1, d2)
	}
	log1, log2 := in1.log, in2.log
	if len(log1) != len(log2) {
		t.Fatalf("fault logs differ in length: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
	if len(log1) == 0 {
		t.Fatal("no faults fired")
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	_, e1, _, _ := runScenario(t, 1)
	_, e2, _, _ := runScenario(t, 2)
	if e1 == e2 {
		t.Fatalf("different seeds produced identical elapsed %v", e1)
	}
}

func TestLinkFaultsSlowTheWire(t *testing.T) {
	clean := func() float64 {
		k, sp := newSP(t)
		workload.SpawnPingEcho(sp, "x")
		e := -1.0
		k.Spawn("b", func(p *des.Proc) { e = workload.PingPongBurst(p, sp, "x", 200, 256); k.Stop() })
		k.Run()
		return e
	}()
	k, sp := newSP(t)
	in := NewInjector(k, 3)
	if err := in.Arm(LinkFaults{Link: sp.Link, DropProb: 0.3}); err != nil {
		t.Fatal(err)
	}
	workload.SpawnPingEcho(sp, "x")
	faulty := -1.0
	k.Spawn("b", func(p *des.Proc) { faulty = workload.PingPongBurst(p, sp, "x", 200, 256); k.Stop() })
	k.Run()
	if faulty <= clean {
		t.Fatalf("faulty burst %v not slower than clean %v", faulty, clean)
	}
	if sp.Link.Retransmits() == 0 {
		t.Fatal("no retransmits under 30% drop")
	}
	if in.Count("link-drop") == 0 {
		t.Fatal("no drop events logged")
	}
	if in.Count("link-drop")+in.Count("link-corrupt") != sp.Link.Retransmits() {
		t.Fatalf("log (%d drops + %d corrupt) disagrees with link retransmits %d",
			in.Count("link-drop"), in.Count("link-corrupt"), sp.Link.Retransmits())
	}
}

func TestHostStallsFreezeCompute(t *testing.T) {
	k := des.New()
	h := cpu.NewHost(k, "sun", 1)
	in := NewInjector(k, 5)
	if err := in.Arm(HostStalls{Host: h, MeanSpacing: 0.2, MeanDuration: 0.2}); err != nil {
		t.Fatal(err)
	}
	done := -1.0
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 5); done = p.Now() })
	k.RunUntil(1000)
	if done <= 5 {
		t.Fatalf("5 units finished at %v despite stalls", done)
	}
	if h.Stalls() != in.Count("host-stall") {
		t.Fatalf("host counted %d stalls, log has %d", h.Stalls(), in.Count("host-stall"))
	}
}

func TestCrashRestartAddsDowntime(t *testing.T) {
	k := des.New()
	h := cpu.NewHost(k, "sun", 1)
	in := NewInjector(k, 11)
	if err := in.Arm(CrashRestart{Host: h, MTBF: 1, Downtime: 0.5}); err != nil {
		t.Fatal(err)
	}
	done := -1.0
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 10); done = p.Now() })
	k.RunUntil(1000)
	crashes := in.Count("crash-restart")
	if crashes == 0 {
		t.Fatal("no crashes in 10 work units at MTBF 1")
	}
	// Progress freezes during each downtime window; with checkpointed
	// progress the job still finishes, later by at least one downtime.
	if done < 10+0.5 {
		t.Fatalf("finished at %v with %d crashes, want ≥ 10.5", done, crashes)
	}
}

func TestArmValidation(t *testing.T) {
	k, sp := newSP(t)
	h := cpu.NewHost(k, "sun2", 1)
	mon, err := monitor.New(sp, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(k, 1)
	bad := []Fault{
		LinkFaults{Link: nil, DropProb: 0.1},
		LinkFaults{Link: sp.Link, DropProb: -0.1},
		LinkFaults{Link: sp.Link, DropProb: 0.7, CorruptProb: 0.7},
		HostStalls{Host: nil, MeanSpacing: 1, MeanDuration: 1},
		HostStalls{Host: h, MeanSpacing: 0, MeanDuration: 1},
		HostStalls{Host: h, MeanSpacing: 1, MeanDuration: -1},
		CrashRestart{Host: nil, MTBF: 1, Downtime: 1},
		CrashRestart{Host: h, MTBF: 0, Downtime: 1},
		ContenderChurn{MeanSpacing: 1, Perturb: nil},
		ContenderChurn{MeanSpacing: 0, Perturb: func() {}},
		SampleLoss{Monitor: nil, DropProb: 0.1},
		SampleLoss{Monitor: mon, DropProb: 1.5},
	}
	for i, f := range bad {
		if err := in.Arm(f); err == nil {
			t.Errorf("case %d accepted: %+v", i, f)
		}
	}
}

func TestLinkFaultDistinguishesDropAndCorrupt(t *testing.T) {
	k, sp := newSP(t)
	in := NewInjector(k, 21)
	if err := in.Arm(LinkFaults{Link: sp.Link, DropProb: 0.15, CorruptProb: 0.15}); err != nil {
		t.Fatal(err)
	}
	workload.SpawnPingEcho(sp, "x")
	k.Spawn("b", func(p *des.Proc) { workload.PingPongBurst(p, sp, "x", 300, 200); k.Stop() })
	k.Run()
	if in.Count("link-drop") == 0 || in.Count("link-corrupt") == 0 {
		t.Fatalf("expected both kinds: %d drops, %d corruptions",
			in.Count("link-drop"), in.Count("link-corrupt"))
	}
}
