package cpu

import (
	"fmt"
	"testing"

	"contention/internal/des"
)

// computeLoop keeps n jobs resident on a unit-speed host: each process
// computes one work unit over and over, so all n retire together every
// n seconds and re-enter at once.
func computeLoop(k *des.Kernel, n int) *Host {
	h := NewHost(k, "sun", 1)
	for i := 0; i < n; i++ {
		k.Spawn("job", func(p *des.Proc) {
			for {
				h.Compute(p, 1)
			}
		})
	}
	return h
}

// Steady-state Compute allocates nothing: jobs are values in a reused
// slice, retireDue filters in place, and the host re-times its one
// completion event instead of scheduling a new one per membership
// change. One round per Run ends every job at the horizon, where it
// queues and parks; over eight rounds a lone job runs ahead (and
// dispatches no event doing so), while of four equal jobs, which retire
// together, the last to re-enter takes their completion in place and all
// four wakes still go through the queue.
func TestComputeAllocationFree(t *testing.T) {
	for _, n := range []int{1, 4} {
		k := des.New()
		h := computeLoop(k, n)
		round := float64(n)
		k.RunUntil(4 * round)
		before := h.Completed()
		got := testing.AllocsPerRun(200, func() { k.RunUntil(k.Now() + round) })
		if got != 0 {
			t.Errorf("%d resident jobs: %v allocs per round, want 0", n, got)
		}
		if h.Completed() == before {
			t.Errorf("%d resident jobs: no job completed while measuring", n)
		}
		events := k.Dispatched()
		if got := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + 8*round) }); got != 0 {
			t.Errorf("%d resident jobs: %v allocs per 8 rounds, want 0", n, got)
		}
		if got := k.Dispatched() - events; (got <= 2*101) != (n == 1) {
			t.Errorf("%d resident jobs: %d events dispatched over 101 runs of 8 rounds; a lone job needs two per run, shared ones four per round", n, got)
		}
		k.Close()
	}
}

// BenchmarkCompute prices one Compute call (enqueue, re-time, park,
// retire, resume) with 1 and 4 resident jobs.
func BenchmarkCompute(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("resident=%d", n), func(b *testing.B) {
			k := des.New()
			defer k.Close()
			computeLoop(k, n)
			k.RunUntil(float64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			// One work unit retires per virtual second at any n.
			k.RunUntil(k.Now() + float64(b.N))
		})
	}
}
