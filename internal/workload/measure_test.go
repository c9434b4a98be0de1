package workload

import (
	"strings"
	"testing"

	"contention/internal/des"
	"contention/internal/platform"
)

// measureShape is one kind of measured run: a burst in either direction
// or a CPU-bound computation.
type measureShape struct {
	name    string
	compute bool
	dir     Direction
}

var measureShapes = []measureShape{
	{name: "ping-pong", dir: SunToParagon},
	{name: "stream", dir: ParagonToSun},
	{name: "cpu", compute: true},
}

const (
	measureCount, measureWords = 300, 256
	measureWork                = 0.4
)

// contendedSP is a fresh platform beside a CPU hog and one alternator
// each way, so the measured run shares the Sun's CPU and the wire. The
// Paragon→Sun contender asks for its first burst at time 0, so an event
// is queued behind the measured process's start: a zero warm-up that
// took a Delay would let it go first.
func contendedSP(t *testing.T) (*des.Kernel, *platform.SunParagon) {
	t.Helper()
	k, sp := newSP(t)
	SpawnCPUHog(sp, "hog")
	for _, s := range []AlternatorSpec{
		{Name: "out", CommFraction: 0.25, MsgWords: 200, Period: 0.1, Phase: 0.017, Direction: SunToParagon},
		{Name: "in", CommFraction: 1, MsgWords: 200, Period: 0.1, Direction: ParagonToSun},
	} {
		if _, err := SpawnAlternator(sp, s); err != nil {
			t.Fatal(err)
		}
	}
	return k, sp
}

// handBuiltRun is a measured run as every caller wrote it before
// Measure and Burst: the echo installed before the spawn, the warm-up,
// the measurement, then k.Stop() and a sentinel for a run that never
// finished.
func handBuiltRun(t *testing.T, s measureShape, warmup float64) (float64, *des.Kernel) {
	k, sp := contendedSP(t)
	t.Cleanup(k.Close)
	const port = "bench"
	elapsed := -1.0
	switch {
	case s.compute:
		k.Spawn("bench", func(p *des.Proc) {
			if warmup > 0 {
				p.Delay(warmup)
			}
			start := p.Now()
			sp.Host.Compute(p, measureWork)
			elapsed = p.Now() - start
			k.Stop()
		})
	case s.dir == SunToParagon:
		SpawnPingEcho(sp, port)
		k.Spawn("bench", func(p *des.Proc) {
			if warmup > 0 {
				p.Delay(warmup)
			}
			elapsed = PingPongBurst(p, sp, port, measureCount, measureWords)
			k.Stop()
		})
	default:
		k.Spawn("bench", func(p *des.Proc) {
			if warmup > 0 {
				p.Delay(warmup)
			}
			elapsed = BurstFromParagon(p, sp, port, measureCount, measureWords)
			k.Stop()
		})
	}
	k.Run()
	if elapsed < 0 {
		t.Fatalf("hand-built %s run did not finish", s.name)
	}
	return elapsed, k
}

func measuredRun(t *testing.T, s measureShape, warmup float64) (float64, *des.Kernel) {
	k, sp := contendedSP(t)
	t.Cleanup(k.Close)
	v, err := Measure(k, "bench", warmup, func(p *des.Proc) float64 {
		if s.compute {
			start := p.Now()
			sp.Host.Compute(p, measureWork)
			return p.Now() - start
		}
		return Burst(p, sp, s.dir, "bench", measureCount, measureWords)
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, k
}

// Measure and Burst are the hand-built block, not an approximation of
// it: every event keeps its (time, sequence) place, so each shape gives
// the same bits with the same number of events and coroutine switches,
// with and without a warm-up.
func TestMeasureMatchesHandBuiltRun(t *testing.T) {
	for _, s := range measureShapes {
		for _, warmup := range []float64{0, 0.5} {
			want, wk := handBuiltRun(t, s, warmup)
			got, gk := measuredRun(t, s, warmup)
			if got != want {
				t.Errorf("%s, warm-up %v: Measure %v, hand-built %v", s.name, warmup, got, want)
			}
			if got, want := gk.Dispatched(), wk.Dispatched(); got != want {
				t.Errorf("%s, warm-up %v: Measure dispatched %d events, hand-built %d", s.name, warmup, got, want)
			}
			if got, want := gk.Resumes(), wk.Resumes(); got != want {
				t.Errorf("%s, warm-up %v: Measure resumed %d times, hand-built %d", s.name, warmup, got, want)
			}
		}
	}
}

// A measured process that parks for good on a kernel that drains has no
// value to give: Measure reports the run by name instead.
func TestMeasureReportsRunThatNeverFinishes(t *testing.T) {
	k, _ := newSP(t)
	defer k.Close()
	v, err := Measure(k, "stuck probe", 0.5, func(p *des.Proc) float64 {
		p.Park()
		return 1
	})
	if err == nil || !strings.Contains(err.Error(), `"stuck probe"`) || v != 0 {
		t.Fatalf("Measure of a run that never finishes: value %v, err %v; want an error naming the run", v, err)
	}
}
