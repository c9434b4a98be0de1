package link_test

import (
	"testing"

	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/workload"
)

// burstContenders is the Figure 5/6 load: two applications on the Sun
// alternating computation with 200-word messages, communicating 25% and
// 76% of the time.
var burstContenders = []workload.AlternatorSpec{
	{Name: "alt25", CommFraction: 0.25, MsgWords: 200, Period: 0.1, Phase: 0.017, Direction: workload.SunToParagon},
	{Name: "alt76", CommFraction: 0.76, MsgWords: 200, Period: 0.1, Phase: 0.031, Direction: workload.SunToParagon},
}

// burst runs the figures' measurement — one 1000×256-word burst on a
// fresh default Sun/Paragon platform, after the contenders (if any)
// have warmed up — and reports how many times the kernel had to switch
// into a process to get through it.
func burst(tb testing.TB, dir workload.Direction, contenders []workload.AlternatorSpec) (resumes uint64) {
	const count, words, port = 1000, 256, "bench"
	k := des.New()
	defer k.Close()
	sp, err := platform.NewSunParagon(k, platform.DefaultParagonParams(platform.OneHop))
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range contenders {
		if _, err := workload.SpawnAlternator(sp, s); err != nil {
			tb.Fatal(err)
		}
	}
	measure := func(run func(p *des.Proc)) {
		k.Spawn("bench", func(p *des.Proc) {
			if len(contenders) > 0 {
				p.Delay(0.5)
			}
			resumes = k.Resumes()
			run(p)
			resumes = k.Resumes() - resumes
			k.Stop()
		})
	}
	switch dir {
	case workload.SunToParagon:
		workload.SpawnPingEcho(sp, port)
		measure(func(p *des.Proc) { workload.PingPongBurst(p, sp, port, count, words) })
	case workload.ParagonToSun:
		ctl := workload.BurstServer(sp, "server", port)
		measure(func(p *des.Proc) { workload.BurstFromParagon(p, sp, ctl, port, count, words) })
	}
	k.Run()
	return resumes
}

// A dedicated burst from the Paragon is a sender and a receiver taking
// turns: one switch into the receiver per message. Everything else — the
// conversion's completion on the host, the wire delay, the sender's own
// wake — is dispatched from wherever the running process parked. A burst
// to the Paragon has no receiver at all (the echo is an arrival handler),
// so the sender runs it alone until the one-word reply.
func TestDedicatedBurstResumesOncePerMessage(t *testing.T) {
	if got := burst(t, workload.ParagonToSun, nil); got < 1000 || got > 1010 {
		t.Errorf("%v: %d resumes for a 1000-message dedicated burst, want 1000 to 1010", workload.ParagonToSun, got)
	}
	if got := burst(t, workload.SunToParagon, nil); got > 10 {
		t.Errorf("%v: %d resumes for a 1000-message dedicated burst, want at most 10", workload.SunToParagon, got)
	}
}

// BenchmarkBurst prices one simulated message of the figures' bursts,
// dedicated and under the Figure 5 contenders, with the coroutine
// switches it took.
func BenchmarkBurst(b *testing.B) {
	for _, bc := range []struct {
		name       string
		dir        workload.Direction
		contenders []workload.AlternatorSpec
	}{
		{"dedicated/to", workload.SunToParagon, nil},
		{"dedicated/from", workload.ParagonToSun, nil},
		{"contended/to", workload.SunToParagon, burstContenders},
		{"contended/from", workload.ParagonToSun, burstContenders},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var resumes uint64
			for i := 0; i < b.N; i++ {
				resumes += burst(b, bc.dir, bc.contenders)
			}
			b.ReportMetric(float64(resumes)/float64(b.N)/1000, "resumes/msg")
		})
	}
}
