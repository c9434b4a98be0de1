package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// assertColdAllocationFree pins the kernel's allocation contract for
// one Predict method: pricing a contender set the predictor has never
// seen costs zero allocations at p = 1, 16, 17, 63 and 64 (the whole
// stack-scratch range, both sides of the narrow scratch's edge) — a
// scheduler may evaluate a fresh candidate placement on every decision.
func assertColdAllocationFree(t *testing.T, name string, call func(p *Predictor, cs []Contender) error) {
	p, err := NewPredictor(fullCalibration())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, kernelSmallP, kernelSmallP + 1, kernelStackP - 1, kernelStackP} {
		t.Run(fmt.Sprintf("%s/p=%d", name, n), func(t *testing.T) {
			// One never-seen multiset per call (AllocsPerRun adds a warm-up).
			const runs = 100
			keys := make([][]Contender, runs+1)
			for i := range keys {
				keys[i] = randomContenders(rng, n)
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if err := call(p, keys[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if allocs != 0 {
				t.Fatalf("%s on a never-seen p=%d set allocates %.1f objects/op, want 0", name, n, allocs)
			}
		})
	}
}

func TestPredictCommAllocationFree(t *testing.T) {
	sets := []DataSet{{N: 400, Words: 512}}
	assertColdAllocationFree(t, "PredictComm", func(p *Predictor, cs []Contender) error {
		_, err := p.PredictComm(HostToBack, sets, cs)
		return err
	})
}

func TestPredictCompAllocationFree(t *testing.T) {
	assertColdAllocationFree(t, "PredictComp", func(p *Predictor, cs []Contender) error {
		_, err := p.PredictComp(2, cs)
		return err
	})
	assertColdAllocationFree(t, "PredictCompWithJ", func(p *Predictor, cs []Contender) error {
		_, err := p.PredictCompWithJ(2, cs, 500)
		return err
	})
}

// TestMultiAndSystemAllocations: over the stack-scratch range, the
// multi-link slowdown, with traffic on both links, allocates no more than
// the package-level CommSlowdown on the same tables (whose one allocation
// is the tables' validation), and a System's evaluations allocate nothing.
func TestMultiAndSystemAllocations(t *testing.T) {
	tables := fullCalibration().Tables
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{1, kernelSmallP, kernelSmallP + 1, kernelStackP - 1, kernelStackP} {
		cs := randomContenders(rng, n)
		tagged := make([]MultiContender, n)
		sys, err := NewSystem(tables)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cs {
			tagged[i] = MultiContender{Contender: c, Link: LinkID((i + 1) % 2)} // the first off target
			if err := sys.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		base := testing.AllocsPerRun(100, func() {
			if _, err := CommSlowdown(cs, tables); err != nil {
				t.Fatal(err)
			}
		})
		if multi := testing.AllocsPerRun(100, func() {
			if _, err := CommSlowdownMulti(0, tagged, tables); err != nil {
				t.Fatal(err)
			}
		}); multi > base {
			t.Errorf("p=%d: CommSlowdownMulti allocates %.1f objects/op, CommSlowdown %.1f", n, multi, base)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			_ = sys.CommSlowdown()
			if _, err := sys.CompSlowdown(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.CompSlowdownWithJ(1000); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("p=%d: System evaluations allocate %.1f objects/op, want 0", n, allocs)
		}
	}
}
