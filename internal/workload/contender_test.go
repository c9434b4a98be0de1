package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"contention/internal/cpu"
	"contention/internal/des"
	"contention/internal/platform"
)

// spawnAlternatorLoop is the process SpawnAlternator's contender stands
// in for, kept as the reference TestContenderMatchesProcessLoop compares
// it with: one process on the Sun looping over the cycle — computation,
// disk operations, then the cycle's messages sent (Send) or asked for
// and received (Recv) — until its stop time.
func spawnAlternatorLoop(t *testing.T, sp *platform.SunParagon, spec AlternatorSpec) {
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	port := "alt:" + spec.Name
	n := MessagesPerCycle(sp, spec)
	computeWork := (1 - spec.CommFraction - spec.IOFraction) * spec.Period
	ioOps, ioWords := IOOpsPerCycle(sp, spec)
	sp.K.Spawn(spec.Name, func(p *des.Proc) {
		if spec.Phase > 0 {
			p.Delay(spec.Phase)
		}
		for {
			if spec.Stop > 0 && p.Now() >= spec.Stop {
				return
			}
			if computeWork > 0 {
				sp.Host.Compute(p, computeWork)
			}
			for i := 0; i < ioOps; i++ {
				sp.Disk.Op(p, ioWords)
			}
			switch {
			case n == 0:
			case spec.Direction == SunToParagon:
				for i := 0; i < n; i++ {
					sp.SendToParagon(p, port, spec.MsgWords)
				}
			default:
				sp.ParagonEnd.Stream(port, port, n, spec.MsgWords, nil)
				for i := 0; i < n; i++ {
					sp.RecvOnSun(p, port)
				}
			}
			if computeWork == 0 && n == 0 && ioOps == 0 {
				return
			}
		}
	})
}

// spawnDutyHogLoop is the process SpawnDutyHogOnHost's hog stands in for.
func spawnDutyHogLoop(k *des.Kernel, host *cpu.Host, duty, period float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	k.Spawn("duty", func(p *des.Proc) {
		for {
			cycle := period * (0.6 + 0.8*rng.Float64())
			host.Compute(p, duty*cycle)
			if idle := (1 - duty) * cycle; idle > 0 {
				p.Delay(idle)
			}
		}
	})
}

// contenderCase is one contended run: the contenders, the platform they
// load and the measurement beside them.
type contenderCase struct {
	name       string
	mode       platform.HopMode
	lossy      bool // every fifth transmission attempt is lost
	hogs       int  // CPU-bound hogs (SpawnCPUHog)
	duty       bool // one duty-cycle hog (SpawnDutyHogOnHost)
	contenders []AlternatorSpec
	measure    measureShape
}

// contenderRun is everything a contended run leaves behind that a
// caller can see: the measured value, then the clock and the host's,
// link's and disk's counters, read when the measurement stops the kernel
// and again two simulated seconds later.
type contenderRun struct {
	value    float64
	readings [2]string
	resumes  uint64
}

func runContended(t *testing.T, c contenderCase, loop bool) contenderRun {
	k := des.New()
	defer k.Close()
	sp, err := platform.NewSunParagon(k, platform.DefaultParagonParams(c.mode))
	if err != nil {
		t.Fatal(err)
	}
	if c.lossy {
		attempt := 0
		sp.Link.SetFaultFunc(func(int) bool {
			attempt++
			return attempt%5 == 0
		})
	}
	for i := 0; i < c.hogs; i++ {
		if loop {
			k.Spawn("hog", func(p *des.Proc) { sp.Host.Compute(p, 1e18) })
		} else {
			SpawnCPUHog(sp, "hog")
		}
	}
	if c.duty {
		if loop {
			spawnDutyHogLoop(k, sp.Host, 0.8, 0.05, 7)
		} else {
			SpawnDutyHogOnHost(k, sp.Host, "duty", 0.8, 0.05, 7)
		}
	}
	for _, s := range c.contenders {
		if loop {
			spawnAlternatorLoop(t, sp, s)
		} else if _, err := SpawnAlternator(sp, s); err != nil {
			t.Fatal(err)
		}
	}
	var run contenderRun
	run.value, err = Measure(k, "bench", 0.5, func(p *des.Proc) float64 {
		if c.measure.compute {
			start := p.Now()
			sp.Host.Compute(p, measureWork)
			return p.Now() - start
		}
		return Burst(p, sp, c.measure.dir, "bench", measureCount, measureWords)
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func() string {
		return fmt.Sprintf("clock %v, host busy %v load %v completed %d, link busy %v messages %d words %d resent %d, disk busy %v",
			k.Now(), sp.Host.BusyTime(), sp.Host.LoadIntegral(), sp.Host.Completed(),
			sp.Link.BusyTime(), sp.Link.Messages(), sp.Link.WordsMoved(), sp.Link.Retransmits(), sp.Disk.BusyTime())
	}
	run.readings[0] = read()
	k.RunUntil(k.Now() + 2)
	run.readings[1] = read()
	run.resumes = k.Resumes()
	return run
}

var (
	toParagon = AlternatorSpec{Name: "to", CommFraction: 0.25, MsgWords: 200, Period: 0.1, Phase: 0.017, Direction: SunToParagon}
	toSun     = AlternatorSpec{Name: "from", CommFraction: 0.5, MsgWords: 300, Period: 0.1, Direction: ParagonToSun}
	withIO    = AlternatorSpec{Name: "io", CommFraction: 0.2, IOFraction: 0.3, IOWords: 2048, MsgWords: 500, Period: 0.08, Phase: 0.005, Direction: SunToParagon}
)

// The Action contender ≡ the process loop: in every scenario the
// measured run reads the same value, the run ends at the same instant,
// and the host, the wire and the disk account the same time, jobs and
// messages, to the bit — at the measurement's end and two simulated
// seconds on — with fewer coroutine switches.
func TestContenderMatchesProcessLoop(t *testing.T) {
	stopped := func(s AlternatorSpec, stop float64) AlternatorSpec {
		s.Stop = stop
		return s
	}
	big := toParagon
	big.Name, big.CommFraction, big.MsgWords, big.Phase = "big", 0.76, 1500, 0.031
	ioFrom := withIO
	ioFrom.Name, ioFrom.Direction = "io-from", ParagonToSun
	cpuMeasure := measureShapes[2]
	for _, c := range []contenderCase{
		{name: "sun→paragon", contenders: []AlternatorSpec{toParagon}, measure: measureShapes[0]},
		{name: "paragon→sun", contenders: []AlternatorSpec{toSun}, measure: measureShapes[1]},
		{name: "phase, measuring computation", contenders: []AlternatorSpec{toParagon, toSun}, measure: cpuMeasure},
		{name: "stop mid-measurement", contenders: []AlternatorSpec{stopped(toParagon, 0.55), stopped(toSun, 0.6)}, measure: measureShapes[1]},
		{name: "I/O both ways", contenders: []AlternatorSpec{withIO, ioFrom}, measure: measureShapes[0]},
		{name: "lossy wire", lossy: true, contenders: []AlternatorSpec{toParagon, toSun}, measure: measureShapes[1]},
		{name: "2-HOPS", mode: platform.TwoHops, contenders: []AlternatorSpec{toParagon, toSun}, measure: measureShapes[0]},
		{name: "2-HOPS, lossy, I/O", mode: platform.TwoHops, lossy: true, contenders: []AlternatorSpec{withIO, toSun}, measure: measureShapes[1]},
		{name: "two sharing the wire, hogs", hogs: 2, contenders: []AlternatorSpec{toParagon, big}, measure: measureShapes[0]},
		{name: "duty hog", duty: true, hogs: 1, measure: cpuMeasure},
	} {
		want := runContended(t, c, true)
		got := runContended(t, c, false)
		if got.value != want.value {
			t.Errorf("%s: measured %v beside Action contenders, %v beside processes", c.name, got.value, want.value)
		}
		for i := range want.readings {
			if got.readings[i] != want.readings[i] {
				t.Errorf("%s, reading %d:\n  actions:   %s\n  processes: %s", c.name, i, got.readings[i], want.readings[i])
			}
		}
		if got.resumes >= want.resumes {
			t.Errorf("%s: %d coroutine switches beside Action contenders, %d beside processes; want fewer", c.name, got.resumes, want.resumes)
		}
	}
}

// A contender's cycle allocates nothing once it is under way: the
// contenders, their stream and disk records, the host's jobs and the
// kernel's events are all recycled. One alternator each way (one with
// disk I/O), a duty-cycle hog and a CPU hog share the Sun and the wire.
func TestContenderCycleAllocationFree(t *testing.T) {
	k, sp := newSP(t)
	defer k.Close()
	SpawnCPUHog(sp, "hog")
	SpawnDutyHogOnHost(k, sp.Host, "duty", 0.9, 0.05, 3)
	for _, s := range []AlternatorSpec{toParagon, toSun, withIO} {
		if _, err := SpawnAlternator(sp, s); err != nil {
			t.Fatal(err)
		}
	}
	const cycle = 0.1
	k.RunUntil(20 * cycle)
	messages, completed := sp.Link.Messages(), sp.Host.Completed()
	for _, cycles := range []float64{1, 10} {
		got := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + cycles*cycle) })
		t.Logf("contender cycles: %v allocs per %v cycles", got, cycles)
		if got != 0 {
			t.Errorf("%v allocs per %v contender cycles, want 0", got, cycles)
		}
	}
	if sp.Link.Messages() == messages || sp.Host.Completed() == completed || k.Procs() != 0 {
		t.Fatalf("while measuring: %d messages, %d jobs completed, %d processes; want traffic, work and no process",
			sp.Link.Messages()-messages, sp.Host.Completed()-completed, k.Procs())
	}
}
