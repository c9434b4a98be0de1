package simd

import (
	"testing"

	"contention/internal/des"
)

// A front-end in steady state — issuing past the FIFO's depth, so that
// Issue parks on back-pressure, then waiting in Sync for the engine to
// drain — allocates nothing per instruction: completions are timed
// calls on the session itself, and the instruction queue and the Sync
// waiter list keep their arrays. Only the Figure 2 interval record
// grows, by amortized doubling.
func TestIssueSyncAllocationFree(t *testing.T) {
	k := des.New()
	defer k.Close()
	b := NewBackend(k, "cm2")
	var s *Session
	k.Spawn("fe", func(p *des.Proc) {
		s = b.Attach(p, "app", 2)
		for {
			for i := 0; i < 4; i++ {
				s.Issue(p, 0.25)
			}
			s.Sync(p)
		}
	})
	k.RunUntil(64)
	issued := s.issued
	if got := testing.AllocsPerRun(200, func() { k.RunUntil(k.Now() + 1) }); got != 0 {
		t.Errorf("%v allocs per round of four instructions and a Sync, want 0", got)
	}
	if got := s.issued - issued; got < 4*200 {
		t.Errorf("%d instructions issued while measuring, want at least 800", got)
	}
}
