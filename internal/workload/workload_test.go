package workload

import (
	"math"
	"runtime"
	"testing"

	"contention/internal/des"
	"contention/internal/platform"
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

func TestDirectionString(t *testing.T) {
	if SunToParagon.String() == "" || ParagonToSun.String() == "" || Direction(5).String() == "" {
		t.Fatal("empty direction strings")
	}
}

func TestAlternatorSpecValidate(t *testing.T) {
	good := AlternatorSpec{Name: "a", CommFraction: 0.5, MsgWords: 100, Period: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []AlternatorSpec{
		{Name: "f", CommFraction: -0.1, MsgWords: 1, Period: 1},
		{Name: "f2", CommFraction: 1.5, MsgWords: 1, Period: 1},
		{Name: "w", CommFraction: 0.5, MsgWords: 0, Period: 1},
		{Name: "p", CommFraction: 0.5, MsgWords: 1, Period: 0},
		{Name: "ph", CommFraction: 0.5, MsgWords: 1, Period: 1, Phase: -1},
		{Name: "d", CommFraction: 0.5, MsgWords: 1, Period: 1, Direction: Direction(7)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v did not error", s)
		}
	}
}

func TestMessagesPerCycleMatchesFraction(t *testing.T) {
	_, sp := newSP(t)
	spec := AlternatorSpec{Name: "a", CommFraction: 0.5, MsgWords: 200, Period: 0.1}
	n := MessagesPerCycle(sp, spec)
	if n < 1 {
		t.Fatalf("n = %d", n)
	}
	per := dedicatedMsgTime(sp, 200, SunToParagon)
	frac := float64(n) * per / spec.Period
	if math.Abs(frac-0.5) > 0.2 {
		t.Fatalf("dedicated comm fraction %v, want ≈ 0.5", frac)
	}
	if MessagesPerCycle(sp, AlternatorSpec{CommFraction: 0}) != 0 {
		t.Fatal("zero fraction should send no messages")
	}
}

func TestAlternatorDedicatedFractionsEmerge(t *testing.T) {
	// Run one alternator alone; its long-run comm fraction (measured as
	// link busy time over elapsed) should be near the spec.
	k, sp := newSP(t)
	spec := AlternatorSpec{Name: "a", CommFraction: 0.4, MsgWords: 500, Period: 0.2}
	if _, err := SpawnAlternator(sp, spec); err != nil {
		t.Fatal(err)
	}
	const horizon = 50.0
	k.RunUntil(horizon)
	// Host busy fraction ≈ (1 - comm share of the cycle) plus the
	// conversion CPU share of comm; both host and link shares must be
	// substantial and sum near 1 in dedicated mode.
	hostFrac := sp.Host.BusyTime() / horizon
	linkFrac := sp.Link.BusyTime() / horizon
	if hostFrac < 0.5 || hostFrac > 0.95 {
		t.Fatalf("host busy fraction %v outside (0.5,0.95)", hostFrac)
	}
	if linkFrac < 0.2 || linkFrac > 0.5 {
		t.Fatalf("link busy fraction %v, want ≈ 0.33 (wire share of comm)", linkFrac)
	}
}

func TestAlternatorParagonToSunDelivers(t *testing.T) {
	k, sp := newSP(t)
	spec := AlternatorSpec{
		Name: "b", CommFraction: 0.5, MsgWords: 300, Period: 0.1,
		Direction: ParagonToSun,
	}
	if _, err := SpawnAlternator(sp, spec); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(5)
	if sp.Link.Messages() == 0 {
		t.Fatal("no messages moved paragon→sun")
	}
	if sp.Host.BusyTime() == 0 {
		t.Fatal("sun-side compute phase never ran")
	}
}

func TestSpawnAlternatorRejectsInvalid(t *testing.T) {
	_, sp := newSP(t)
	if _, err := SpawnAlternator(sp, AlternatorSpec{Name: "x", CommFraction: 2, MsgWords: 1, Period: 1}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestBurstToParagonElapsed(t *testing.T) {
	k, sp := newSP(t)
	var elapsed float64
	k.Spawn("m", func(p *des.Proc) {
		start := p.Now()
		for i := 0; i < 100; i++ {
			sp.SendToParagon(p, "bench", 200)
		}
		elapsed = p.Now() - start
	})
	k.Run()
	per := dedicatedMsgTime(sp, 200, SunToParagon)
	if math.Abs(elapsed-100*per)/(100*per) > 0.05 {
		t.Fatalf("burst took %v, want ≈ %v", elapsed, 100*per)
	}
}

func TestBurstFromParagonElapsed(t *testing.T) {
	k, sp := newSP(t)
	var elapsed float64
	k.Spawn("m", func(p *des.Proc) {
		elapsed = BurstFromParagon(p, sp, "bench", 100, 200)
	})
	k.Run()
	wire := sp.Link.WireTime(200)
	// Lower bound: 100 wire occupancies; upper: + conversion each.
	if elapsed < 100*wire-1e-9 {
		t.Fatalf("burst took %v, below wire-only bound %v", elapsed, 100*wire)
	}
	per := dedicatedMsgTime(sp, 200, ParagonToSun)
	if elapsed > 100*per*1.1 {
		t.Fatalf("burst took %v, above dedicated estimate %v", elapsed, 100*per)
	}
}

func TestPingPongBurst(t *testing.T) {
	k, sp := newSP(t)
	SpawnPingEcho(sp, "pp")
	var e1, e2 float64
	k.Spawn("m", func(p *des.Proc) {
		e1 = PingPongBurst(p, sp, "pp", 50, 100)
		e2 = PingPongBurst(p, sp, "pp", 50, 2000)
	})
	k.RunUntil(1e5)
	if e1 <= 0 || e2 <= e1 {
		t.Fatalf("ping-pong times %v/%v: larger messages must take longer", e1, e2)
	}
}

func TestPingPongBurstPanicsOnZeroCount(t *testing.T) {
	k, sp := newSP(t)
	SpawnPingEcho(sp, "pp")
	k.Spawn("m", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("count 0 did not panic")
			}
		}()
		PingPongBurst(p, sp, "pp", 0, 1)
	})
	k.RunUntil(10)
}

func TestCPUHogSaturatesHost(t *testing.T) {
	k, sp := newSP(t)
	SpawnCPUHog(sp, "hog")
	k.RunUntil(10)
	if got := sp.Host.BusyTime(); math.Abs(got-10) > 1e-6 {
		t.Fatalf("host busy %v of 10s with a hog", got)
	}
}

// A Paragon-side port nobody handles keeps nothing: the messages cross
// the link, the node drops them where they land, and a long run
// allocates nothing per message.
func TestUnhandledParagonPortRetainsNothing(t *testing.T) {
	k, sp := newSP(t)
	defer k.Close()
	k.Spawn("s", func(p *des.Proc) {
		for {
			sp.SendToParagon(p, "d", 10)
		}
	})
	k.RunUntil(1)
	sent := sp.Link.Messages()
	if got := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + 0.1) }); got != 0 {
		t.Fatalf("%v allocs per 0.1 s of discarded traffic, want 0", got)
	}
	if sp.Link.Messages() == sent {
		t.Fatal("no message crossed the link while measuring")
	}
}

// The echo is a handler, not a process: it answers each end-marker with
// exactly one one-word message, burst after burst on the same port, and
// the reply is streamed, so no process ever exists on the Paragon side.
func TestPingEchoRepliesOncePerBurst(t *testing.T) {
	const count, words = 50, 100
	k, sp := newSP(t)
	procs := k.Procs()
	SpawnPingEcho(sp, "pp")
	if got := k.Procs(); got != procs {
		t.Fatalf("SpawnPingEcho left %d live processes, want %d", got, procs)
	}
	k.Spawn("m", func(p *des.Proc) {
		for burst := 1; burst <= 2; burst++ {
			PingPongBurst(p, sp, "pp", count, words)
			p.Delay(1) // a second reply would cross the link by now
			if got, want := sp.Link.Messages(), burst*(count+1); got != want {
				t.Errorf("after burst %d: %d messages crossed the link, want %d", burst, got, want)
			}
			if got, want := sp.Link.WordsMoved(), burst*(count*words+1); got != want {
				t.Errorf("after burst %d: %d words crossed the link, want %d (one-word replies)", burst, got, want)
			}
		}
	})
	k.Run()
	if got := k.Procs(); got != procs {
		t.Fatalf("%d live processes after two bursts, want %d", got, procs)
	}
}

// A contender's traffic is load, not data: a long run must not retain
// (or allocate) anything per message it sent. One alternator per
// direction covers the discarded Paragon-side port and the Sun-side
// inbox its receiver keeps up with.
func TestAlternatorsAllocateNothingPerSimulatedSecond(t *testing.T) {
	k, sp := newSP(t)
	defer k.Close()
	for _, spec := range []AlternatorSpec{
		{Name: "to", CommFraction: 0.5, MsgWords: 200, Period: 0.1, Direction: SunToParagon},
		{Name: "from", CommFraction: 0.5, MsgWords: 200, Period: 0.1, Phase: 0.013, Direction: ParagonToSun},
	} {
		if _, err := SpawnAlternator(sp, spec); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(5)
	messages := sp.Link.Messages()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.RunUntil(50)
	runtime.ReadMemStats(&after)
	if n := sp.Link.Messages() - messages; n < 10000 {
		t.Fatalf("only %d messages crossed the link in 45 simulated seconds", n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("45 simulated seconds of two alternators allocated %d bytes, want at most 64 KiB", got)
	}
}

func TestAlternatorStopEndsContender(t *testing.T) {
	k, sp := newSP(t)
	spec := AlternatorSpec{
		Name: "stopper", CommFraction: 0, MsgWords: 1, Period: 0.05, Stop: 2.0,
	}
	if _, err := SpawnAlternator(sp, spec); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(10)
	busy := sp.Host.BusyTime()
	// Active roughly [0, 2): busy close to 2, then idle.
	if busy < 1.8 || busy > 2.3 {
		t.Fatalf("host busy %v, want ≈ 2 (contender stopped)", busy)
	}
}

// A contender is no process, in either direction: what a Paragon→Sun
// contender receives is streamed to it and drained by Actions, so it
// never adds to the live processes, and when it stops nothing of it is
// left behind, parked or queued.
func TestStoppedParagonToSunAlternatorLeavesNoProcess(t *testing.T) {
	k, sp := newSP(t)
	defer k.Close()
	procs := k.Procs()
	spec := AlternatorSpec{
		Name: "from", CommFraction: 0.5, MsgWords: 200, Period: 0.1, Stop: 2.0,
		Direction: ParagonToSun,
	}
	if _, err := SpawnAlternator(sp, spec); err != nil {
		t.Fatal(err)
	}
	if got := k.Procs(); got != procs {
		t.Fatalf("SpawnAlternator left %d live processes, want %d", got, procs)
	}
	k.RunUntil(10)
	if sp.Link.Messages() == 0 {
		t.Fatal("no messages moved paragon→sun")
	}
	if got := k.Procs(); got != procs || k.Pending() != 0 {
		t.Fatalf("%d live processes and %d pending events after the contender stopped, want %d and 0", got, k.Pending(), procs)
	}
}

func TestAlternatorStopValidation(t *testing.T) {
	_, sp := newSP(t)
	if _, err := SpawnAlternator(sp, AlternatorSpec{
		Name: "bad", CommFraction: 0.1, MsgWords: 1, Period: 1, Phase: 2, Stop: 1,
	}); err == nil {
		t.Fatal("stop before phase accepted")
	}
	if _, err := SpawnAlternator(sp, AlternatorSpec{
		Name: "bad2", CommFraction: 0.1, MsgWords: 1, Period: 1, Stop: -1,
	}); err == nil {
		t.Fatal("negative stop accepted")
	}
}

func TestAlternatorIOFractionUsesDisk(t *testing.T) {
	k, sp := newSP(t)
	spec := AlternatorSpec{
		Name: "io", CommFraction: 0, IOFraction: 0.5, IOWords: 8192,
		MsgWords: 1, Period: 0.2,
	}
	if _, err := SpawnAlternator(sp, spec); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(10)
	// Host busy fraction ≈ compute share (0.5) plus small CPU-per-op.
	busyFrac := sp.Host.BusyTime() / 10
	if busyFrac < 0.4 || busyFrac > 0.65 {
		t.Fatalf("host busy fraction %v, want ≈ 0.5", busyFrac)
	}
	diskFrac := sp.Disk.BusyTime() / 10
	if diskFrac < 0.35 || diskFrac > 0.6 {
		t.Fatalf("disk busy fraction %v, want ≈ 0.5", diskFrac)
	}
}

func TestAlternatorIOValidation(t *testing.T) {
	_, sp := newSP(t)
	bad := []AlternatorSpec{
		{Name: "a", CommFraction: 0.6, IOFraction: 0.6, MsgWords: 1, Period: 1},
		{Name: "b", CommFraction: 0, IOFraction: -0.1, MsgWords: 1, Period: 1},
		{Name: "c", CommFraction: 0, IOFraction: 0.5, IOWords: -1, MsgWords: 1, Period: 1},
	}
	for _, s := range bad {
		if _, err := SpawnAlternator(sp, s); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
}

func TestIOOpsPerCycle(t *testing.T) {
	_, sp := newSP(t)
	ops, words := IOOpsPerCycle(sp, AlternatorSpec{IOFraction: 0.5, Period: 0.2})
	if ops < 1 || words != 4096 {
		t.Fatalf("ops=%d words=%d", ops, words)
	}
	if ops, _ := IOOpsPerCycle(sp, AlternatorSpec{IOFraction: 0}); ops != 0 {
		t.Fatalf("zero fraction ops = %d", ops)
	}
}
