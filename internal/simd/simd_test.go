package simd

import (
	"math"
	"testing"

	"contention/internal/cpu"
	"contention/internal/des"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestInstructionsExecuteInOrder(t *testing.T) {
	k := des.New()
	b := NewBackend(k, "cm2")
	var end float64
	k.Spawn("fe", func(p *des.Proc) {
		s := b.Attach(p, "app", 4)
		s.Issue(p, 1)
		s.Issue(p, 2)
		s.Issue(p, 3)
		s.Detach(p)
		end = p.Now()
	})
	k.Run()
	if !approx(end, 6, 1e-9) {
		t.Fatalf("finished at %v, want 6 (sequential execution)", end)
	}
	if got := b.totalBusy; !approx(got, 6, 1e-9) {
		t.Fatalf("TotalBusy = %v, want 6", got)
	}
}

func TestFrontEndOverlapsWithBackend(t *testing.T) {
	// Serial work on the host overlaps with back-end execution: total
	// elapsed = max(serial, parallel) when the FIFO absorbs the issue.
	k := des.New()
	host := cpu.NewHost(k, "sun", 1)
	b := NewBackend(k, "cm2")
	var end float64
	k.Spawn("fe", func(p *des.Proc) {
		s := b.Attach(p, "app", 8)
		s.Issue(p, 5)      // back-end busy 5s
		host.Compute(p, 2) // front-end serial work runs concurrently
		s.Detach(p)        // waits for the back-end
		end = p.Now()
	})
	k.Run()
	if !approx(end, 5, 1e-9) {
		t.Fatalf("finished at %v, want 5 (overlap)", end)
	}
}

func TestFIFOBackPressure(t *testing.T) {
	// Capacity-1 FIFO: the second Issue must wait for the first to finish.
	k := des.New()
	b := NewBackend(k, "cm2")
	var issuedAt []float64
	k.Spawn("fe", func(p *des.Proc) {
		s := b.Attach(p, "app", 1)
		s.Issue(p, 2)
		issuedAt = append(issuedAt, p.Now())
		s.Issue(p, 2) // blocks until t=2
		issuedAt = append(issuedAt, p.Now())
		s.Detach(p)
	})
	k.Run()
	if !approx(issuedAt[0], 0, 1e-9) || !approx(issuedAt[1], 2, 1e-9) {
		t.Fatalf("issue times %v, want [0 2]", issuedAt)
	}
}

func TestSyncWaitsForOutstanding(t *testing.T) {
	k := des.New()
	b := NewBackend(k, "cm2")
	var syncAt float64
	k.Spawn("fe", func(p *des.Proc) {
		s := b.Attach(p, "app", 4)
		s.Issue(p, 3)
		s.Issue(p, 4)
		s.Sync(p)
		syncAt = p.Now()
		s.Detach(p)
	})
	k.Run()
	if !approx(syncAt, 7, 1e-9) {
		t.Fatalf("sync completed at %v, want 7", syncAt)
	}
}

func TestSyncWithNothingOutstandingReturnsImmediately(t *testing.T) {
	k := des.New()
	b := NewBackend(k, "cm2")
	var at float64
	k.Spawn("fe", func(p *des.Proc) {
		s := b.Attach(p, "app", 4)
		s.Sync(p)
		at = p.Now()
		s.Detach(p)
	})
	k.Run()
	if at != 0 {
		t.Fatalf("sync at %v, want 0", at)
	}
}

func TestSequencerExcludesSecondApplication(t *testing.T) {
	// Only one app can hold the sequencer: the second attach waits.
	k := des.New()
	b := NewBackend(k, "cm2")
	var startB float64
	k.Spawn("app1", func(p *des.Proc) {
		s := b.Attach(p, "app1", 2)
		s.Issue(p, 5)
		s.Detach(p)
	})
	k.Spawn("app2", func(p *des.Proc) {
		p.Delay(1)
		s := b.Attach(p, "app2", 2)
		startB = p.Now()
		s.Issue(p, 1)
		s.Detach(p)
	})
	k.Run()
	if !approx(startB, 5, 1e-9) {
		t.Fatalf("second app attached at %v, want 5 (sequencer exclusion)", startB)
	}
	if b.sessions != 2 {
		t.Fatalf("Sessions = %d, want 2", b.sessions)
	}
}

func TestIdleTimeAccounting(t *testing.T) {
	k := des.New()
	host := cpu.NewHost(k, "sun", 1)
	b := NewBackend(k, "cm2")
	var idle, busy float64
	k.Spawn("fe", func(p *des.Proc) {
		s := b.Attach(p, "app", 4)
		host.Compute(p, 3) // back-end idle for 3s
		s.Issue(p, 2)      // busy 2s
		s.Detach(p)
		idle = s.IdleTime(p.Now())
		busy = s.BusyTime()
	})
	k.Run()
	if !approx(busy, 2, 1e-9) {
		t.Fatalf("BusyTime = %v, want 2", busy)
	}
	if !approx(idle, 3, 1e-9) {
		t.Fatalf("IdleTime = %v, want 3", idle)
	}
}

func TestIssuedAndOutstandingCounters(t *testing.T) {
	k := des.New()
	b := NewBackend(k, "cm2")
	k.Spawn("fe", func(p *des.Proc) {
		s := b.Attach(p, "app", 4)
		s.Issue(p, 1)
		s.Issue(p, 1)
		if s.issued != 2 {
			t.Errorf("Issued = %d, want 2", s.issued)
		}
		if s.outstanding == 0 {
			t.Error("Outstanding = 0 right after issue")
		}
		s.Sync(p)
		if s.outstanding != 0 {
			t.Errorf("Outstanding = %d after Sync, want 0", s.outstanding)
		}
		s.Detach(p)
	})
	k.Run()
}

func TestMisusePanics(t *testing.T) {
	k := des.New()
	b := NewBackend(k, "cm2")
	k.Spawn("fe", func(p *des.Proc) {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Attach with fifoCap 0 did not panic")
				}
			}()
			b.Attach(p, "bad", 0)
		}()
		s := b.Attach(p, "app", 2)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative duration did not panic")
				}
			}()
			s.Issue(p, -1)
		}()
		s.Detach(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Issue after Detach did not panic")
				}
			}()
			s.Issue(p, 1)
		}()
		s.Detach(p) // double detach is a no-op
	})
	k.Run()
}

func TestMaxLawEmergesFromPipeline(t *testing.T) {
	// A program alternating serial (host) and parallel (back-end) work.
	// With a generous FIFO, elapsed ≈ max(total parallel, total serial)
	// when one side dominates.
	run := func(serialPer, parallelPer float64, steps int, hogs int) float64 {
		k := des.New()
		host := cpu.NewHost(k, "sun", 1)
		b := NewBackend(k, "cm2")
		var end float64
		k.Spawn("fe", func(p *des.Proc) {
			s := b.Attach(p, "app", 16)
			for i := 0; i < steps; i++ {
				host.Compute(p, serialPer)
				s.Issue(p, parallelPer)
			}
			s.Detach(p)
			end = p.Now()
		})
		for i := 0; i < hogs; i++ {
			k.Spawn("hog", func(p *des.Proc) { host.Compute(p, 1e9) })
		}
		k.RunUntil(1e8)
		return end
	}

	// Parallel-dominated, dedicated: elapsed ≈ serial_1 + total parallel.
	if got := run(0.1, 1.0, 10, 0); !approx(got, 10.1, 0.2) {
		t.Fatalf("parallel-dominated elapsed = %v, want ≈ 10.1", got)
	}
	// Serial-dominated with 3 hogs: elapsed ≈ total serial × 4.
	if got := run(1.0, 0.1, 10, 3); !approx(got, 40.1, 0.5) {
		t.Fatalf("serial-dominated contended elapsed = %v, want ≈ 40.1", got)
	}
}
