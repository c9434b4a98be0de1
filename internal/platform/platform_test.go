package platform

import (
	"math"
	"testing"

	"contention/internal/des"
	"contention/internal/link"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCM2TransferDedicatedCost(t *testing.T) {
	k := des.New()
	s := MustNewSunCM2(k, DefaultCM2Params())
	var done float64
	k.Spawn("app", func(p *des.Proc) {
		s.Transfer(p, 1000)
		done = p.Now()
	})
	k.Run()
	want := s.Params.XferStartup + s.Params.XferPerWord*1000
	if !approx(done, want, 1e-9) {
		t.Fatalf("transfer took %v, want %v", done, want)
	}
}

func TestCM2TransferSlowsByPPlusOne(t *testing.T) {
	for _, hogs := range []int{0, 1, 3} {
		k := des.New()
		s := MustNewSunCM2(k, DefaultCM2Params())
		var done float64
		k.Spawn("app", func(p *des.Proc) {
			s.TransferMessages(p, 10, 500)
			done = p.Now()
		})
		s.SpawnCPUHogs(hogs)
		k.RunUntil(1e6)
		dedicated := 10 * (s.Params.XferStartup + s.Params.XferPerWord*500)
		want := dedicated * float64(hogs+1)
		if !approx(done, want, 1e-6) {
			t.Fatalf("hogs=%d: transfer took %v, want %v", hogs, done, want)
		}
	}
}

func TestCM2ParamValidation(t *testing.T) {
	k := des.New()
	bad := []CM2Params{
		{HostSpeed: 0, FIFODepth: 1},
		{HostSpeed: 1, XferStartup: -1, FIFODepth: 1},
		{HostSpeed: 1, FIFODepth: 0},
	}
	for i, params := range bad {
		if _, err := NewSunCM2(k, params); err == nil {
			t.Errorf("case %d did not error", i)
		}
	}
}

func TestParagonDedicatedSendCost(t *testing.T) {
	k := des.New()
	s := MustNewSunParagon(k, DefaultParagonParams(OneHop))
	var done float64
	k.Spawn("app", func(p *des.Proc) {
		s.SendToParagon(p, "app", 200)
		done = p.Now()
	})
	k.Run()
	conv := s.Params.SendStartup + s.Params.SendPerWord*200
	wire := s.Link.WireTime(200)
	if !approx(done, conv+wire, 1e-9) {
		t.Fatalf("send took %v, want %v", done, conv+wire)
	}
}

func TestParagonTwoHopsAddsNXDelay(t *testing.T) {
	k1 := des.New()
	one := MustNewSunParagon(k1, DefaultParagonParams(OneHop))
	var arr1 float64
	one.ParagonEnd.Handle("app", func(msg link.Message) { arr1 = msg.Arrived })
	k1.Spawn("s", func(p *des.Proc) { one.SendToParagon(p, "app", 500) })
	k1.Run()

	k2 := des.New()
	two := MustNewSunParagon(k2, DefaultParagonParams(TwoHops))
	var arr2 float64
	two.ParagonEnd.Handle("app", func(msg link.Message) { arr2 = msg.Arrived })
	k2.Spawn("s", func(p *des.Proc) { two.SendToParagon(p, "app", 500) })
	k2.Run()

	nx := two.MPP.NXTime(500)
	if !approx(arr2, arr1+nx, 1e-9) {
		t.Fatalf("2-HOPS arrival %v, want 1-HOP %v + NX %v", arr2, arr1, nx)
	}
}

func TestParagonTwoHopsOutboundPreSend(t *testing.T) {
	k := des.New()
	s := MustNewSunParagon(k, DefaultParagonParams(TwoHops))
	var done float64
	k.Spawn("r", func(p *des.Proc) { done = s.RecvOnSun(p, "app").Arrived })
	s.ParagonEnd.Stream("app", "app", 1, 500, nil)
	k.Run()
	nx := s.MPP.NXTime(500)
	wire := s.Link.WireTime(500)
	if done < nx+wire-1e-9 {
		t.Fatalf("paragon→sun send took %v, want ≥ %v (NX hop + wire)", done, nx+wire)
	}
}

func TestParagonCPUContentionSlowsSends(t *testing.T) {
	// CPU-bound hogs on the Sun slow the conversion stage, so sends take
	// measurably longer than dedicated but less than conversion×(p+1)+wire
	// upper bounds. Check the direction and rough magnitude.
	run := func(hogs int) float64 {
		k := des.New()
		s := MustNewSunParagon(k, DefaultParagonParams(OneHop))
		var done float64
		k.Spawn("s", func(p *des.Proc) {
			for i := 0; i < 50; i++ {
				s.SendToParagon(p, "app", 200)
			}
			done = p.Now()
		})
		s.SpawnCPUHogs(hogs)
		k.RunUntil(1e6)
		return done
	}
	dedicated := run(0)
	contended := run(3)
	if contended <= dedicated*1.2 {
		t.Fatalf("3 hogs: %v vs dedicated %v — CPU contention should slow sends", contended, dedicated)
	}
	params := DefaultParagonParams(OneHop)
	conv := params.SendStartup + params.SendPerWord*200
	wire := params.Link.PerPacket + 200/params.Link.Bandwidth
	upper := 50 * (conv*4 + wire + 1e-3)
	if contended > upper {
		t.Fatalf("contended time %v exceeds upper bound %v", contended, upper)
	}
}

func TestParagonLinkSharingBetweenApps(t *testing.T) {
	// Two applications sending concurrently share the wire: total time
	// for both ≥ serialized wire occupancy.
	k := des.New()
	s := MustNewSunParagon(k, DefaultParagonParams(OneHop))
	var done1, done2 float64
	k.Spawn("s1", func(p *des.Proc) {
		for i := 0; i < 20; i++ {
			s.SendToParagon(p, "a1", 1000)
		}
		done1 = p.Now()
	})
	k.Spawn("s2", func(p *des.Proc) {
		for i := 0; i < 20; i++ {
			s.SendToParagon(p, "a2", 1000)
		}
		done2 = p.Now()
	})
	k.Run()
	wire := s.Link.WireTime(1000)
	minSerialized := 40 * wire
	last := math.Max(done1, done2)
	if last < minSerialized-1e-9 {
		t.Fatalf("both finished at %v, impossible given 40 wire occupancies of %v", last, wire)
	}
}

func TestParagonParamValidation(t *testing.T) {
	k := des.New()
	p := DefaultParagonParams(OneHop)
	p.HostSpeed = 0
	if _, err := NewSunParagon(k, p); err == nil {
		t.Error("zero host speed accepted")
	}
	p = DefaultParagonParams(OneHop)
	p.SendPerWord = -1
	if _, err := NewSunParagon(k, p); err == nil {
		t.Error("negative conversion accepted")
	}
	p = DefaultParagonParams(OneHop)
	p.Mode = HopMode(9)
	if _, err := NewSunParagon(k, p); err == nil {
		t.Error("unknown mode accepted")
	}
	p = DefaultParagonParams(OneHop)
	p.Mesh.Nodes = 0
	if _, err := NewSunParagon(k, p); err == nil {
		t.Error("bad mesh config accepted")
	}
	p = DefaultParagonParams(OneHop)
	p.Link.MTU = 0
	if _, err := NewSunParagon(k, p); err == nil {
		t.Error("bad link config accepted")
	}
}

func TestHopModeString(t *testing.T) {
	if OneHop.String() != "1-HOP" || TwoHops.String() != "2-HOPS" {
		t.Fatalf("strings %q/%q", OneHop.String(), TwoHops.String())
	}
	if HopMode(7).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestSunMultiParagonSharesHostAndDisk(t *testing.T) {
	k := des.New()
	legs, err := NewSunMultiParagon(k, DefaultParagonParams(OneHop), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(legs) != 3 {
		t.Fatalf("got %d legs, want 3", len(legs))
	}
	for i := 1; i < 3; i++ {
		if legs[i].Host != legs[0].Host {
			t.Fatal("legs do not share the host")
		}
		if legs[i].Disk != legs[0].Disk {
			t.Fatal("legs do not share the disk")
		}
		if legs[i].Link == legs[0].Link {
			t.Fatal("legs share a link")
		}
		if legs[i].MPP == legs[0].MPP {
			t.Fatal("legs share an MPP")
		}
	}
}

func TestSunMultiParagonWiresAreIndependent(t *testing.T) {
	// Probe: the latency of a single message while a streamer saturates
	// either the SAME leg's wire or the OTHER leg's wire. The same-leg
	// probe must queue behind the streamer; the cross-leg probe only
	// shares the CPU conversion stage.
	run := func(sameLeg bool) float64 {
		k := des.New()
		legs, err := NewSunMultiParagon(k, DefaultParagonParams(OneHop), 2)
		if err != nil {
			t.Fatal(err)
		}
		streamLeg := legs[1]
		if sameLeg {
			streamLeg = legs[0]
		}
		k.Spawn("streamer", func(p *des.Proc) {
			for {
				streamLeg.SendToParagon(p, "stream", 4000)
			}
		})
		total := 0.0
		const probes = 40
		k.Spawn("probe", func(p *des.Proc) {
			p.Delay(0.5)
			for i := 0; i < probes; i++ {
				p.Delay(0.0137) // de-phase from the streamer's cycle
				start := p.Now()
				legs[0].SendToParagon(p, "probe", 100)
				total += p.Now() - start
			}
			k.Stop()
		})
		k.Run()
		return total / probes
	}
	sameLeg := run(true)
	crossLeg := run(false)
	if crossLeg >= sameLeg {
		t.Fatalf("cross-leg latency %v not below same-leg latency %v", crossLeg, sameLeg)
	}
	// The same-leg probe waits for a 4000-word wire occupancy; the
	// cross-leg probe does not.
	wire4000 := DefaultParagonParams(OneHop).Link.PerPacket*4 + 4000/DefaultParagonParams(OneHop).Link.Bandwidth
	if sameLeg-crossLeg < wire4000/4 {
		t.Fatalf("wire relief only %v, want ≥ %v", sameLeg-crossLeg, wire4000/4)
	}
}

func TestSunMultiParagonValidation(t *testing.T) {
	k := des.New()
	if _, err := NewSunMultiParagon(k, DefaultParagonParams(OneHop), 0); err == nil {
		t.Fatal("zero legs accepted")
	}
	p := DefaultParagonParams(OneHop)
	p.HostSpeed = 0
	if _, err := NewSunMultiParagon(k, p, 2); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestSunMultiParagonTwoHops(t *testing.T) {
	k := des.New()
	legs, err := NewSunMultiParagon(k, DefaultParagonParams(TwoHops), 2)
	if err != nil {
		t.Fatal(err)
	}
	var arrived float64
	legs[1].ParagonEnd.Handle("x", func(msg link.Message) { arrived = msg.Arrived })
	k.Spawn("s", func(p *des.Proc) { legs[1].SendToParagon(p, "x", 500) })
	k.Run()
	nx := legs[1].MPP.NXTime(500)
	wire := legs[1].Link.WireTime(500)
	if arrived < nx+wire-1e-9 {
		t.Fatalf("2-HOPS arrival %v below NX+wire %v", arrived, nx+wire)
	}
}

// MustNewSunCM2 is NewSunCM2 with panic-on-error.
func MustNewSunCM2(k *des.Kernel, params CM2Params) *SunCM2 {
	s, err := NewSunCM2(k, params)
	if err != nil {
		panic(err)
	}
	return s
}

// MustNewSunParagon is NewSunParagon with panic-on-error.
func MustNewSunParagon(k *des.Kernel, params ParagonParams) *SunParagon {
	s, err := NewSunParagon(k, params)
	if err != nil {
		panic(err)
	}
	return s
}
