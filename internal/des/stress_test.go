package des

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// stressRun drives a randomized mix of primitives (delays, semaphores,
// mailboxes) and returns an event journal. Two runs with the
// same seed must journal identically — the determinism guarantee the
// experiment reproducibility rests on.
func stressRun(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	k := New()
	var journal []string
	log := func(format string, args ...any) {
		journal = append(journal, fmt.Sprintf(format, args...))
	}

	sem := NewSemaphore(k, 1+rng.Intn(3))
	mb := NewMailbox[int](k, "mb")
	nProcs := 3 + rng.Intn(5)

	for i := 0; i < nProcs; i++ {
		i := i
		steps := 3 + rng.Intn(5)
		delays := make([]float64, steps)
		for j := range delays {
			delays[j] = rng.Float64() * 2
		}
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, d := range delays {
				p.Delay(d)
				switch j % 4 {
				case 0:
					sem.Acquire(p)
					log("p%d acquired at %.6f", i, p.Now())
					p.Delay(0.1)
					sem.Release()
				case 1:
					mb.Send(i*100 + j)
					log("p%d sent at %.6f", i, p.Now())
				case 2:
					if v, ok := mb.TryRecv(); ok {
						log("p%d recv %d at %.6f", i, v, p.Now())
					}
				case 3:
					log("p%d step at %.6f", i, p.Now())
				}
			}
		})
	}
	k.Run()
	return journal
}

func TestStressDeterminism(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := stressRun(seed)
		b := stressRun(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: journal lengths %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: journals diverge at %d:\n%s\nvs\n%s", seed, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty journal", seed)
		}
	}
}

// The journal names who did what at which instant, so its digest pins
// the (time, sequence, actor) order itself, not just that two runs
// agree. The constants were recorded with a kernel whose Run fired
// every event from one goroutine; whoever dispatches, and however the
// processes are switched, the order must come out the same.
func TestStressJournalDigests(t *testing.T) {
	for seed, want := range map[int64]string{
		1:  "db23f7a3983fc645",
		7:  "5d88e7eae9b3475d",
		11: "3f99ce722aa1f5aa",
	} {
		sum := sha256.Sum256([]byte(strings.Join(stressRun(seed), "\n")))
		if got := fmt.Sprintf("%x", sum[:8]); got != want {
			t.Errorf("seed %d: journal digest %s, want %s", seed, got, want)
		}
	}
}

func TestStressDifferentSeedsDiffer(t *testing.T) {
	a := stressRun(1)
	b := stressRun(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical journals — RNG not wired through")
	}
}

func TestStressAllProcsFinish(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		n := 2 + rng.Intn(6)
		finished := 0
		for i := 0; i < n; i++ {
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Delay(rng.Float64())
				}
				finished++
			})
		}
		k.Run()
		if finished != n {
			t.Fatalf("seed %d: %d/%d procs finished", seed, finished, n)
		}
		if k.Procs() != 0 {
			t.Fatalf("seed %d: %d procs leaked", seed, k.Procs())
		}
	}
}
