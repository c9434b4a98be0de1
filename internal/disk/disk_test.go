package disk

import (
	"fmt"
	"math"
	"testing"

	"contention/internal/cpu"
	"contention/internal/des"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// MustNew is New but panics on config errors.
func MustNew(k *des.Kernel, cfg Config) *Disk {
	d, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func testCfg() Config {
	return Config{Name: "sd0", Seek: 0.01, Rate: 1000}
}

func TestOpTime(t *testing.T) {
	k := des.New()
	d := MustNew(k, testCfg())
	if got, want := d.OpTime(100), 0.01+0.1; !approx(got, want, 1e-12) {
		t.Fatalf("OpTime = %v, want %v", got, want)
	}
}

func TestOpBlocksForDeviceTime(t *testing.T) {
	k := des.New()
	d := MustNew(k, testCfg())
	var done float64
	k.Spawn("a", func(p *des.Proc) {
		d.Op(p, 100) // 0.11s
		done = p.Now()
	})
	k.Run()
	if !approx(done, 0.11, 1e-9) {
		t.Fatalf("op finished at %v, want 0.11", done)
	}
	if !approx(d.BusyTime(), 0.11, 1e-9) {
		t.Fatalf("BusyTime = %v", d.BusyTime())
	}
}

func TestDiskIsFCFS(t *testing.T) {
	k := des.New()
	d := MustNew(k, testCfg())
	var done1, done2 float64
	k.Spawn("a", func(p *des.Proc) { d.Op(p, 90); done1 = p.Now() }) // 0.1s
	k.Spawn("b", func(p *des.Proc) { d.Op(p, 90); done2 = p.Now() }) // queued
	k.Run()
	if !approx(done1, 0.1, 1e-9) || !approx(done2, 0.2, 1e-9) {
		t.Fatalf("ops finished at %v/%v, want 0.1/0.2", done1, done2)
	}
}

func TestDiskDoesNotConsumeCPUWhileWaiting(t *testing.T) {
	// An I/O operation without CPUPerOp leaves the host idle: a CPU job
	// running concurrently is not slowed.
	k := des.New()
	h := cpu.NewHost(k, "sun", 1)
	cfg := testCfg()
	d := MustNew(k, cfg)
	var cpuDone float64
	k.Spawn("io", func(p *des.Proc) {
		for i := 0; i < 20; i++ {
			d.Op(p, 100)
		}
	})
	k.Spawn("cpu", func(p *des.Proc) {
		h.Compute(p, 1)
		cpuDone = p.Now()
	})
	k.Run()
	if !approx(cpuDone, 1, 1e-9) {
		t.Fatalf("CPU job finished at %v, want 1 (no interference)", cpuDone)
	}
}

func TestCPUPerOpChargesHost(t *testing.T) {
	k := des.New()
	h := cpu.NewHost(k, "sun", 1)
	cfg := Config{Name: "sd0", Seek: 0.01, Rate: 1000, Host: h, CPUPerOp: 0.005}
	d := MustNew(k, cfg)
	var done float64
	k.Spawn("io", func(p *des.Proc) {
		d.Op(p, 100)
		done = p.Now()
	})
	k.Run()
	if !approx(done, 0.115, 1e-9) {
		t.Fatalf("op finished at %v, want 0.115 (CPU + seek + transfer)", done)
	}
	if !approx(h.BusyTime(), 0.005, 1e-9) {
		t.Fatalf("host busy %v, want 0.005", h.BusyTime())
	}
}

func TestConfigValidation(t *testing.T) {
	k := des.New()
	bad := []Config{
		{Name: "a", Seek: -1, Rate: 1},
		{Name: "b", Seek: 0, Rate: 0},
		{Name: "c", Seek: 0, Rate: 1, CPUPerOp: -1},
		{Name: "d", Seek: math.NaN(), Rate: 1},
	}
	for _, cfg := range bad {
		if _, err := New(k, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestNegativeOpSizePanics(t *testing.T) {
	k := des.New()
	d := MustNew(k, testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	d.OpTime(-1)
}

func TestUtilization(t *testing.T) {
	k := des.New()
	d := MustNew(k, testCfg())
	k.Spawn("a", func(p *des.Proc) { d.Op(p, 90) })   // busy 0.1s
	k.Spawn("idle", func(p *des.Proc) { p.Delay(1) }) // clock to 1s
	k.Run()
	if got := d.BusyTime() / k.Now(); !approx(got, 0.1, 1e-9) {
		t.Fatalf("busy fraction = %v, want 0.1", got)
	}
}

// opChain issues n operations back to back without a process, recording
// when each one is done.
type opChain struct {
	k     *des.Kernel
	d     *Disk
	words int
	left  int
	busy  bool // an operation is in flight: Fire means it is done
	done  *[]float64
}

func (c *opChain) Fire() {
	if c.busy {
		*c.done = append(*c.done, c.k.Now())
	}
	if c.busy = c.left > 0; c.busy {
		c.left--
		c.d.OpAsync(c.words, c)
	}
}

// OpAsync ≡ a process calling Op: beside a process doing the same and a
// CPU-bound job, a chain of asynchronous operations ends each one at the
// instant the process version does, and the host and the device account
// the same time, to the bit.
func TestOpAsyncMatchesOp(t *testing.T) {
	run := func(async bool) string {
		k := des.New()
		defer k.Close()
		h := cpu.NewHost(k, "sun", 1)
		d := MustNew(k, Config{Name: "sd0", Seek: 0.01, Rate: 1000, Host: h, CPUPerOp: 0.005})
		var mine, theirs []float64
		k.Spawn("other", func(p *des.Proc) {
			for i := 0; i < 6; i++ {
				d.Op(p, 50+20*i)
				theirs = append(theirs, p.Now())
			}
		})
		k.Spawn("cpu", func(p *des.Proc) { h.Compute(p, 0.3) })
		if async {
			k.Call(0, &opChain{k: k, d: d, words: 70, left: 5, done: &mine})
		} else {
			k.Spawn("mine", func(p *des.Proc) {
				for i := 0; i < 5; i++ {
					d.Op(p, 70)
					mine = append(mine, p.Now())
				}
			})
		}
		k.Run()
		return fmt.Sprint(mine, theirs, h.BusyTime(), h.LoadIntegral(), h.Completed(), d.BusyTime(), k.Now())
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("asynchronous operations: %s\nprocess operations:     %s", got, want)
	}
}
