package cpu

import (
	"math"
	"testing"

	"contention/internal/des"
)

func TestMemoryConfigFactor(t *testing.T) {
	m := MemoryConfig{Pages: 100, Thrash: 2}
	cases := []struct {
		resident int
		want     float64
	}{
		{0, 1}, {50, 1}, {100, 1}, {150, 2}, {200, 3},
	}
	for _, c := range cases {
		if got := m.Factor(c.resident); !approx(got, c.want, 1e-12) {
			t.Errorf("Factor(%d) = %v, want %v", c.resident, got, c.want)
		}
	}
}

func TestMemoryConfigValidate(t *testing.T) {
	bad := []MemoryConfig{
		{Pages: 0, Thrash: 1},
		{Pages: 10, Thrash: -1},
		{Pages: 10, Thrash: math.NaN()},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d did not error", i)
		}
	}
}

func TestHostWithoutMemoryExtensionIsUnaffected(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	if got := h.PagingFactor(); got != 1 {
		t.Fatalf("PagingFactor = %v without memory config", got)
	}
	if h.hasMem {
		t.Fatal("Memory() reports configured")
	}
}

func TestOversubscriptionSlowsComputation(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	if err := h.ConfigureMemory(MemoryConfig{Pages: 100, Thrash: 2}); err != nil {
		t.Fatal(err)
	}
	// Reserve 150 pages: 50% oversubscription → factor 2.
	r, err := h.Reserve(150)
	if err != nil {
		t.Fatal(err)
	}
	var done float64
	k.Spawn("a", func(p *des.Proc) {
		h.Compute(p, 1)
		done = p.Now()
	})
	k.Run()
	if !approx(done, 2, 1e-9) {
		t.Fatalf("job finished at %v, want 2 (paging factor 2)", done)
	}
	r.Release()
	if h.resident != 0 {
		t.Fatalf("%d pages resident after release", h.resident)
	}
}

func TestReleaseMidJobRestoresSpeed(t *testing.T) {
	// Factor 2 for the first second (0.5 work done), then release →
	// remaining 0.5 at full speed: total 1.5s.
	k := des.New()
	h := NewHost(k, "sun", 1)
	if err := h.ConfigureMemory(MemoryConfig{Pages: 100, Thrash: 2}); err != nil {
		t.Fatal(err)
	}
	var res *Residency
	k.Spawn("setup", func(p *des.Proc) {
		var err error
		res, err = h.Reserve(150)
		if err != nil {
			t.Error(err)
		}
		p.Delay(1)
		res.Release()
		res.Release() // idempotent
	})
	var done float64
	k.Spawn("a", func(p *des.Proc) {
		h.Compute(p, 1)
		done = p.Now()
	})
	k.Run()
	if !approx(done, 1.5, 1e-9) {
		t.Fatalf("job finished at %v, want 1.5", done)
	}
}

func TestReserveWithinMemoryIsFree(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	if err := h.ConfigureMemory(MemoryConfig{Pages: 100, Thrash: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Reserve(80); err != nil {
		t.Fatal(err)
	}
	var done float64
	k.Spawn("a", func(p *des.Proc) {
		h.Compute(p, 1)
		done = p.Now()
	})
	k.Run()
	if !approx(done, 1, 1e-9) {
		t.Fatalf("job finished at %v, want 1 (fits in memory)", done)
	}
}

func TestReserveNegativePagesErrors(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	if _, err := h.Reserve(-1); err == nil {
		t.Fatal("negative reserve accepted")
	}
}

func TestConfigureMemoryRejectsInvalid(t *testing.T) {
	k := des.New()
	h := NewHost(k, "sun", 1)
	if err := h.ConfigureMemory(MemoryConfig{Pages: 0}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPagingCombinesWithProcessorSharing(t *testing.T) {
	// Two equal jobs + factor-2 paging: each runs at speed/4 → work 1
	// finishes at t=4.
	k := des.New()
	h := NewHost(k, "sun", 1)
	if err := h.ConfigureMemory(MemoryConfig{Pages: 100, Thrash: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Reserve(150); err != nil {
		t.Fatal(err)
	}
	var doneA, doneB float64
	k.Spawn("a", func(p *des.Proc) { h.Compute(p, 1); doneA = p.Now() })
	k.Spawn("b", func(p *des.Proc) { h.Compute(p, 1); doneB = p.Now() })
	k.Run()
	if !approx(doneA, 4, 1e-9) || !approx(doneB, 4, 1e-9) {
		t.Fatalf("finished at %v/%v, want 4/4", doneA, doneB)
	}
}
