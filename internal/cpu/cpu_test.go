package cpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"contention/internal/des"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleJobRunsAtFullSpeed(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 2) // 2 work/sec
	var done float64
	k.Spawn("a", func(p *des.Proc) {
		h.Compute(p, 10)
		done = p.Now()
	})
	k.Run()
	if !approx(done, 5, 1e-9) {
		t.Fatalf("finished at %v, want 5", done)
	}
}

func TestTwoEqualJobsShareEvenly(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	var doneA, doneB float64
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 1); doneA = p.Now() })
	k.Spawn("b", func(p *des.Proc) { h.Compute(p, 1); doneB = p.Now() })
	k.Run()
	if !approx(doneA, 2, 1e-9) || !approx(doneB, 2, 1e-9) {
		t.Fatalf("finished at %v/%v, want 2/2", doneA, doneB)
	}
}

func TestLateArrivalSharesRemainder(t *testing.T) {
	// A (work 2) starts at 0; B (work 1) arrives at t=1. A then has 1
	// unit left; both run at rate 1/2 and finish together at t=3.
	k := des.New()
	h := NewHost(k, "sun", 1)
	var doneA, doneB float64
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 2); doneA = p.Now() })
	k.Spawn("b", func(p *des.Proc) {
		p.Delay(1)
		h.Compute(p, 1)
		doneB = p.Now()
	})
	k.Run()
	if !approx(doneA, 3, 1e-9) || !approx(doneB, 3, 1e-9) {
		t.Fatalf("finished at %v/%v, want 3/3", doneA, doneB)
	}
}

func TestSlowdownIsPPlusOne(t *testing.T) {
	// The paper's central CM2 observation: with p extra CPU-bound
	// processes, a task runs p+1 times slower.
	for _, p := range []int{0, 1, 2, 3, 5} {
		k := des.New()
		h := NewHost(k, "sun", 1)
		const work = 4.0
		var done float64
		k.Spawn("task", func(pr *des.Proc) {
			h.Compute(pr, work)
			done = pr.Now()
		})
		for i := 0; i < p; i++ {
			k.Spawn("hog", func(pr *des.Proc) {
				h.Compute(pr, 1e9) // effectively infinite
			})
		}
		k.RunUntil(work * float64(p+2)) // enough horizon for the task
		want := work * float64(p+1)
		if !approx(done, want, 1e-6) {
			t.Fatalf("p=%d: finished at %v, want %v", p, done, want)
		}
	}
}

func TestWeightedSharing(t *testing.T) {
	// Weight-2 job gets 2/3 of the CPU against a weight-1 job.
	k := des.New()
	h := NewHost(k, "sun", 1)
	var doneHeavy float64
	k.Spawn("heavy", func(p *des.Proc) {
		h.ComputeWeighted(p, 2, 2)
		doneHeavy = p.Now()
	})
	k.Spawn("light", func(p *des.Proc) {
		h.ComputeWeighted(p, 10, 1)
	})
	k.RunUntil(4)
	if !approx(doneHeavy, 3, 1e-9) {
		t.Fatalf("heavy finished at %v, want 3", doneHeavy)
	}
}

func TestZeroWorkReturnsImmediately(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	var done float64
	k.Spawn("a", func(p *des.Proc) {
		h.Compute(p, 0)
		done = p.Now()
	})
	k.Run()
	if done != 0 {
		t.Fatalf("zero work finished at %v, want 0", done)
	}
}

func TestBusyTimeAndAvgLoad(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 2) })
	k.Spawn("b", func(p *des.Proc) { h.Compute(p, 2) })
	// Both share: finish at t=4. Then idle until t=10 via a timer proc.
	k.Spawn("idler", func(p *des.Proc) { p.Delay(10) })
	k.Run()
	if got := h.BusyTime(); !approx(got, 4, 1e-9) {
		t.Fatalf("BusyTime = %v, want 4", got)
	}
	if got := h.AvgLoad(); !approx(got, 0.8, 1e-9) { // 2 jobs × 4s / 10s
		t.Fatalf("AvgLoad = %v, want 0.8", got)
	}
	if h.Completed() != 2 {
		t.Fatalf("Completed = %d, want 2", h.Completed())
	}
}

func TestInvalidArgumentsPanic(t *testing.T) {
	k := des.New()
	cases := []func(){
		func() { NewHost(k, "x", 0) },
		func() { NewHost(k, "x", math.NaN()) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
	h := NewHost(k, "sun", 1)
	k.Spawn("bad", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative work did not panic")
			}
		}()
		h.Compute(p, -1)
	})
	k.Run()
}

// Property: total completion time of n equal simultaneous jobs equals
// n × work / speed (PS conserves work), and all jobs finish together.
func TestPSConservesWorkProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		work := 0.5 + r.Float64()*4
		speed := 0.5 + r.Float64()*4
		k := des.New()
		h := NewHost(k, "sun", speed)
		times := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			k.Spawn("j", func(p *des.Proc) {
				h.Compute(p, work)
				times = append(times, p.Now())
			})
		}
		k.Run()
		want := float64(n) * work / speed
		for _, at := range times {
			if !approx(at, want, 1e-6) {
				return false
			}
		}
		return len(times) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: staggered arrivals — each job's response time is at least
// work/speed (no job can beat dedicated speed) and total busy time
// equals total work / speed.
func TestPSWorkConservationStaggeredProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		k := des.New()
		h := NewHost(k, "sun", 1)
		type rec struct{ start, end, work float64 }
		recs := make([]*rec, n)
		totalWork := 0.0
		for i := 0; i < n; i++ {
			w := 0.1 + r.Float64()*2
			start := r.Float64() * 3
			totalWork += w
			rc := &rec{work: w}
			recs[i] = rc
			k.Spawn("j", func(p *des.Proc) {
				p.Delay(start)
				rc.start = p.Now()
				h.Compute(p, w)
				rc.end = p.Now()
			})
		}
		k.Run()
		for _, rc := range recs {
			if rc.end-rc.start < rc.work-1e-9 {
				return false
			}
		}
		return approx(h.BusyTime(), totalWork, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStallFreezesProgress(t *testing.T) {
	// A job with 2 units of work at speed 1 is stalled for 3 seconds at
	// t=1: it finishes at 1 + 3 + 1 = 5, not 2.
	k := des.New()
	h := NewHost(k, "sun", 1)
	var done float64
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 2); done = p.Now() })
	k.At(1, func() { h.Stall(3) })
	k.Run()
	if !approx(done, 5, 1e-9) {
		t.Fatalf("finished at %v, want 5", done)
	}
	if h.Stalls() != 1 {
		t.Fatalf("Stalls() = %d, want 1", h.Stalls())
	}
}

func TestOverlappingStallsMerge(t *testing.T) {
	// Two overlapping stalls [1,4) and [2,6) freeze [1,6): a 2-unit job
	// finishes at 1 + 5 + 1 = 7.
	k := des.New()
	h := NewHost(k, "sun", 1)
	var done float64
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 2); done = p.Now() })
	k.At(1, func() { h.Stall(3) })
	k.At(2, func() { h.Stall(4) })
	k.Run()
	if !approx(done, 7, 1e-9) {
		t.Fatalf("finished at %v, want 7", done)
	}
	if h.Stalls() != 2 {
		t.Fatalf("Stalls() = %d, want 2", h.Stalls())
	}
}

func TestStallKeepsBusyAccounting(t *testing.T) {
	// A stalled host with a resident job is busy, not idle: load and
	// busy-time integrate through the stall window.
	k := des.New()
	h := NewHost(k, "sun", 1)
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 1) })
	k.At(0.5, func() { h.Stall(2) })
	k.Run()
	if !approx(h.BusyTime(), 3, 1e-9) {
		t.Fatalf("BusyTime = %v, want 3 (stall included)", h.BusyTime())
	}
	if !approx(h.LoadIntegral(), 3, 1e-9) {
		t.Fatalf("LoadIntegral = %v, want 3", h.LoadIntegral())
	}
}

func TestStallOnIdleHostDelaysNextJob(t *testing.T) {
	// A stall beginning while the host is idle delays work arriving
	// mid-window.
	k := des.New()
	h := NewHost(k, "sun", 1)
	k.At(0, func() { h.Stall(2) })
	var done float64
	k.Spawn("late", func(p *des.Proc) {
		p.Delay(1)
		h.Compute(p, 1)
		done = p.Now()
	})
	k.Run()
	if !approx(done, 3, 1e-9) {
		t.Fatalf("finished at %v, want 3 (1 wait + 1 work after stall ends at 2)", done)
	}
	if h.Stalled() {
		t.Fatal("host still stalled after window")
	}
}

func TestStallValidation(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative stall accepted")
		}
	}()
	h.Stall(-1)
}

// TestSubUlpRemainderRetires: at speed 1e6 past t=1e4 one ulp of the
// clock (1.8e-12 s) is worth more work than eps, so a job can be left
// with remaining > eps whose finish time rounds to now. Such a job must
// be retired; re-arming its completion at the same instant never ends
// (the run hangs until go test's -timeout).
func TestSubUlpRemainderRetires(t *testing.T) {
	k := des.New()
	defer k.Close()
	h := NewHost(k, "fast", 1e6)
	body := func(p *des.Proc) {
		p.Delay(1e4)
		for i := 0; i < 2000; i++ {
			h.Compute(p, 1+float64(i%7)/3)
		}
		h.Compute(p, 2e-9) // 2e-15 s of work: below the clock's resolution outright
	}
	k.Spawn("a", body)
	k.Spawn("b", body)
	k.Run()
	if got := h.Completed(); got != 2*2001 {
		t.Fatalf("completed %d jobs, want %d", got, 2*2001)
	}
	if now := k.Now(); now < 1e4 || now > 1e4+1 {
		t.Fatalf("finished at %v, want just past 1e4", now)
	}
}
