package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc performs one operation of a workload for client c and reports
// whether its answer was correct. seq counts the client's operations
// from 0; tr is nil in an untraced run.
type opFunc func(c, seq int, tr *recorder) bool

// loopCfg sizes one closed-loop run: every client issues its next
// operation only after the previous one has returned.
type loopCfg struct {
	clients int
	warm    time.Duration
	windows int
	window  time.Duration
	// onPhase, when set, runs as a phase begins (1..windows are the
	// measured windows) — the traced run switches tracing with it.
	onPhase func(phase int)
}

// phase is the loop's current position: 0 is the warm-up, 1..windows
// the measured windows, windows+1 the end. The ends lie on a fixed grid
// (so the run takes warm + windows×window whatever the operations
// cost), and a phase ends at the first operation that completes at or
// after its end, so a window is never cut through an operation of a
// single-client workload.
type phase struct {
	idx int
	end time.Time
}

// snapshot is the process state as a phase ends.
type snapshot struct {
	t          time.Time
	cpu        time.Duration
	mallocs    uint64
	ok, failed int64
}

// windowStats is one measured window.
type windowStats struct {
	Seconds    float64
	OK, Failed int64
	CPUus      float64 // process user+sys CPU per correct operation
	Allocs     float64 // process mallocs per correct operation
	PeakHeapMB float64
	lat        []time.Duration // correct operations only
}

func (w *windowStats) throughput() float64 { return float64(w.OK) / w.Seconds }

func (w *windowStats) latencyMs(q float64) float64 {
	if len(w.lat) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(w.lat)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(w.lat[i]) / float64(time.Millisecond)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInUse reads the bytes in in-use heap spans (MemStats.HeapInuse)
// without stopping the world, so it can be sampled every few ms.
func heapInUse(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64() + s[1].Value.Uint64())
}

func newHeapSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

// runLoop drives op from cfg.clients closed-loop clients through the
// warm-up and the measured windows and returns one windowStats per
// window.
func runLoop(cfg loopCfg, op opFunc, tr *recorder) []windowStats {
	var (
		cur        atomic.Pointer[phase]
		ok, failed atomic.Int64
		snaps      = make([]snapshot, cfg.windows+1)
		peaks      = make([]atomic.Uint64, cfg.windows+2)
		lats       = make([][][]time.Duration, cfg.clients)
		wg         sync.WaitGroup
	)
	snap := func(t time.Time) snapshot {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return snapshot{t: t, cpu: processCPU(), mallocs: ms.Mallocs, ok: ok.Load(), failed: failed.Load()}
	}
	cur.Store(&phase{idx: 0, end: time.Now().Add(cfg.warm)})

	stopHeap := make(chan struct{})
	heapDone := make(chan struct{})
	go func() {
		defer close(heapDone)
		s := newHeapSamples()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopHeap:
				return
			case <-tick.C:
				h := uint64(heapInUse(s))
				p := &peaks[cur.Load().idx]
				if h > p.Load() {
					p.Store(h) // the only writer
				}
			}
		}
	}()

	for c := 0; c < cfg.clients; c++ {
		lats[c] = make([][]time.Duration, cfg.windows+1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				if cur.Load().idx > cfg.windows {
					return
				}
				t0 := time.Now()
				good := op(c, seq, tr)
				t1 := time.Now()
				// The operation belongs to the phase it completes in.
				p := cur.Load()
				if p.idx > cfg.windows {
					return
				}
				if good {
					ok.Add(1)
					lats[c][p.idx] = append(lats[c][p.idx], t1.Sub(t0))
				} else {
					failed.Add(1)
				}
				if t1.Before(p.end) {
					continue
				}
				next := &phase{idx: p.idx + 1, end: p.end.Add(cfg.window)}
				if cur.CompareAndSwap(p, next) {
					snaps[p.idx] = snap(t1)
					if cfg.onPhase != nil {
						cfg.onPhase(next.idx)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopHeap)
	<-heapDone

	out := make([]windowStats, cfg.windows)
	for w := range out {
		a, b := snaps[w], snaps[w+1]
		ws := windowStats{
			Seconds:    b.t.Sub(a.t).Seconds(),
			OK:         b.ok - a.ok,
			Failed:     b.failed - a.failed,
			PeakHeapMB: float64(peaks[w+1].Load()) / (1 << 20),
		}
		if ws.OK > 0 {
			ws.CPUus = float64(b.cpu-a.cpu) / float64(time.Microsecond) / float64(ws.OK)
			ws.Allocs = float64(b.mallocs-a.mallocs) / float64(ws.OK)
		}
		for c := range lats {
			ws.lat = append(ws.lat, lats[c][w+1]...)
		}
		sort.Slice(ws.lat, func(i, j int) bool { return ws.lat[i] < ws.lat[j] })
		out[w] = ws
	}
	return out
}

// median returns the median of xs (NaN for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// over maps the windows through f.
func over(ws []windowStats, f func(*windowStats) float64) []float64 {
	out := make([]float64, len(ws))
	for i := range ws {
		out[i] = f(&ws[i])
	}
	return out
}
