package mesh

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"contention/internal/des"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func newMachine(t *testing.T, k *des.Kernel, cfg Config) *Machine {
	t.Helper()
	m, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testCfg() Config {
	return Config{Name: "paragon", Nodes: 16, NodeSpeed: 2, NXAlpha: 0.001, NXBeta: 1e6}
}

func TestAllocateAndRelease(t *testing.T) {
	k := des.New()
	m := newMachine(t, k, testCfg())
	p1, err := m.Allocate("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.nodes) != 4 || len(m.free) != 12 {
		t.Fatalf("after alloc: size=%d free=%d", len(p1.nodes), len(m.free))
	}
	p1.Release()
	p1.Release() // idempotent
	if len(m.free) != 16 {
		t.Fatalf("after release: free=%d", len(m.free))
	}
}

func TestAllocatePrefersContiguous(t *testing.T) {
	k := des.New()
	m := newMachine(t, k, testCfg())
	a, _ := m.Allocate("a", 4) // nodes 0-3
	b, _ := m.Allocate("b", 4) // nodes 4-7
	a.Release()                // free: 0-3, 8-15
	c, err := m.Allocate("c", 8)
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.nodes
	for i := 1; i < len(nodes); i++ {
		if nodes[i] != nodes[i-1]+1 {
			t.Fatalf("allocation %v not contiguous though 8-15 was available", nodes)
		}
	}
	_ = b
}

func TestAllocateFallsBackToNonContiguous(t *testing.T) {
	k := des.New()
	m := newMachine(t, k, testCfg())
	a, _ := m.Allocate("a", 6) // 0-5
	b, _ := m.Allocate("b", 6) // 6-11
	a.Release()                // free: 0-5, 12-15 (max contiguous run 6)
	c, err := m.Allocate("c", 8)
	if err != nil {
		t.Fatalf("non-contiguous allocation failed: %v", err)
	}
	if len(c.nodes) != 8 {
		t.Fatalf("partition size %d, want 8", len(c.nodes))
	}
	_ = b
}

func TestAllocateErrors(t *testing.T) {
	k := des.New()
	m := newMachine(t, k, testCfg())
	if _, err := m.Allocate("x", 0); err == nil {
		t.Fatal("size-0 allocation did not error")
	}
	if _, err := m.Allocate("x", 17); !errors.Is(err, ErrInsufficientNodes) {
		t.Fatalf("oversize allocation error = %v, want ErrInsufficientNodes", err)
	}
}

func TestComputeIsSpaceShared(t *testing.T) {
	// Two partitions computing concurrently do not slow each other.
	k := des.New()
	m := newMachine(t, k, testCfg()) // speed 2
	var doneA, doneB float64
	pa, _ := m.Allocate("a", 4)
	pb, _ := m.Allocate("b", 4)
	k.Spawn("a", func(p *des.Proc) {
		pa.Compute(p, 10) // 10 work @ speed 2 = 5s
		doneA = p.Now()
	})
	k.Spawn("b", func(p *des.Proc) {
		pb.Compute(p, 10)
		doneB = p.Now()
	})
	k.Run()
	if !approx(doneA, 5, 1e-9) || !approx(doneB, 5, 1e-9) {
		t.Fatalf("done at %v/%v, want 5/5 (no cross-partition slowdown)", doneA, doneB)
	}
}

func TestComputeTotalSplitsAcrossNodes(t *testing.T) {
	k := des.New()
	m := newMachine(t, k, testCfg())
	pa, _ := m.Allocate("a", 4)
	var done float64
	k.Spawn("a", func(p *des.Proc) {
		pa.ComputeTotal(p, 40) // 10/node @ speed 2 = 5s
		done = p.Now()
	})
	k.Run()
	if !approx(done, 5, 1e-9) {
		t.Fatalf("done at %v, want 5", done)
	}
}

func TestComputeOnReleasedPartitionPanics(t *testing.T) {
	k := des.New()
	m := newMachine(t, k, testCfg())
	pa, _ := m.Allocate("a", 2)
	pa.Release()
	k.Spawn("a", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Compute on released partition did not panic")
			}
		}()
		pa.Compute(p, 1)
	})
	k.Run()
}

func TestNXTimeLinear(t *testing.T) {
	k := des.New()
	m := newMachine(t, k, testCfg())
	if got, want := m.NXTime(1000), 0.001+1000/1e6; !approx(got, want, 1e-12) {
		t.Fatalf("NXTime = %v, want %v", got, want)
	}
}

func TestNXFabricIsFCFS(t *testing.T) {
	cfg := testCfg()
	cfg.NXAlpha = 0
	cfg.NXBeta = 100 // 100 words/s: 100-word msg = 1s
	k := des.New()
	m := newMachine(t, k, cfg)
	var done1, done2 float64
	k.Spawn("s1", func(p *des.Proc) {
		m.NXSend(p, 100)
		done1 = p.Now()
	})
	k.Spawn("s2", func(p *des.Proc) {
		m.NXSend(p, 100)
		done2 = p.Now()
	})
	k.Run()
	if !approx(done1, 1, 1e-9) || !approx(done2, 2, 1e-9) {
		t.Fatalf("NX sends finished at %v/%v, want 1/2", done1, done2)
	}
	if !approx(m.FabricBusy(), 2, 1e-9) || m.FabricSends() != 2 {
		t.Fatalf("fabric accounting busy=%v sends=%d", m.FabricBusy(), m.FabricSends())
	}
}

func TestNXHopAsync(t *testing.T) {
	cfg := testCfg()
	cfg.NXAlpha = 0
	cfg.NXBeta = 100
	k := des.New()
	m := newMachine(t, k, cfg)
	var at float64
	m.NXHopAsync(100, func() { at = k.Now() })
	k.Run()
	if !approx(at, 1, 1e-9) {
		t.Fatalf("hop completed at %v, want 1", at)
	}
}

func TestNXHopAsyncQueuesBehindBusyFabric(t *testing.T) {
	cfg := testCfg()
	cfg.NXAlpha = 0
	cfg.NXBeta = 100
	k := des.New()
	m := newMachine(t, k, cfg)
	var hopAt float64
	k.Spawn("s", func(p *des.Proc) { m.NXSend(p, 200) }) // busy until t=2
	k.Spawn("trigger", func(p *des.Proc) {
		p.Delay(0.5)
		m.NXHopAsync(100, func() { hopAt = k.Now() })
	})
	k.Run()
	if !approx(hopAt, 3, 1e-9) {
		t.Fatalf("queued hop completed at %v, want 3", hopAt)
	}
}

// The two asynchronous hops stand in for two different processes, and
// differ in when they ask for a busy fabric. NXSendAsync is a sender
// calling NXSend: it joins the queue at once. NXHopAsync is the service
// node being handed a message: it gets round to it one zero-delay event
// later. So of two hops started in that order at one instant behind a
// busy fabric, the second is served first; both queue FIFO among the
// parked processes; and neither is carried by a process.
func TestAsyncHopsQueueAmongProcesses(t *testing.T) {
	cfg := testCfg()
	cfg.NXAlpha = 0
	cfg.NXBeta = 100
	k := des.New()
	defer k.Close()
	m := newMachine(t, k, cfg)
	var order []string
	done := func(who string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%v", who, k.Now())) }
	}
	k.Spawn("s1", func(p *des.Proc) { m.NXSend(p, 200); done("s1")() }) // busy until t=2
	k.At(0.5, func() {
		m.NXHopAsync(100, done("relay"))
		m.NXSendAsync(100, done("sender"))
	})
	k.Spawn("s2", func(p *des.Proc) {
		p.Delay(0.75)
		m.NXSend(p, 100)
		done("s2")()
	})
	k.At(1, func() { m.NXSendAsync(100, done("late sender")) })
	k.RunUntil(1.5)
	if got := k.Procs(); got != 2 {
		t.Fatalf("%d live processes with three hops queued, want only s1 and s2", got)
	}
	k.Run()
	if got, want := fmt.Sprint(order), "[s1@2 sender@3 relay@4 s2@5 late sender@6]"; got != want {
		t.Fatalf("hops completed %s, want %s", got, want)
	}
	if !approx(m.FabricBusy(), 6, 1e-9) || m.FabricSends() != 5 {
		t.Fatalf("fabric accounting busy=%v sends=%d, want 6 and 5", m.FabricBusy(), m.FabricSends())
	}
}

func TestConfigValidation(t *testing.T) {
	k := des.New()
	bad := []Config{
		{Name: "n", Nodes: 0, NodeSpeed: 1, NXBeta: 1},
		{Name: "s", Nodes: 1, NodeSpeed: 0, NXBeta: 1},
		{Name: "b", Nodes: 1, NodeSpeed: 1, NXBeta: 0},
		{Name: "a", Nodes: 1, NodeSpeed: 1, NXAlpha: -1, NXBeta: 1},
	}
	for _, cfg := range bad {
		if _, err := New(k, cfg); err == nil {
			t.Errorf("config %+v did not error", cfg)
		}
	}
}
