package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapSerialNilPool(t *testing.T) {
	out, err := Map(context.Background(), nil, []int{1, 2, 3},
		func(_ context.Context, i, v int) (int, error) { return v * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[10 20 30]" {
		t.Fatalf("serial map = %v", out)
	}
}

func TestMapParallelOrderDeterministic(t *testing.T) {
	p := New(8)
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), p, items,
		func(_ context.Context, i, v int) (int, error) {
			if i != v {
				t.Errorf("index %d got item %d", i, v)
			}
			// Vary completion order.
			time.Sleep(time.Duration(v%5) * time.Microsecond)
			return v * v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapLowestIndexError: whichever goroutine fails first, the error
// reported is the one the serial loop would have hit — the lowest index.
// TestMapLowestIndexError: a high-index item fails first; Map cancels
// the ctx it hands out, and neither that cancellation reaching a
// not-yet-started lower item nor a cooperative lower item echoing it may
// displace the real lowest-index error. Items 1 and 2 are held on
// ctx.Done(), which closes only once item 6's failure has been recorded.
func TestMapLowestIndexError(t *testing.T) {
	errLo := errors.New("low")
	errHi := errors.New("high")
	for trial := 0; trial < 50; trial++ {
		_, err := Map(context.Background(), New(4), []int{0, 1, 2, 3, 4, 5, 6, 7},
			func(ctx context.Context, i, v int) (int, error) {
				switch v {
				case 6:
					return 0, errHi
				case 2:
					<-ctx.Done()
					return 0, errLo
				case 1:
					<-ctx.Done()
					return 0, ctx.Err()
				}
				return v, nil
			})
		if !errors.Is(err, errLo) {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, errLo)
		}
	}
}

func TestMapSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls int32
	_, err := Map(context.Background(), nil, []int{0, 1, 2, 3},
		func(_ context.Context, i, v int) (int, error) {
			atomic.AddInt32(&calls, 1)
			if v == 1 {
				return 0, boom
			}
			return v, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("serial map made %d calls after error, want 2", calls)
	}
}

func TestMapContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, New(2), []int{1, 2, 3},
		func(ctx context.Context, i, v int) (int, error) { return v, ctx.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMapNestedNoDeadlock: drivers fanned out by the suite each fan out
// their own sweeps on the same pool. The token bucket must never
// deadlock, whatever the nesting.
func TestMapNestedNoDeadlock(t *testing.T) {
	p := New(2)
	outer := make([]int, 16)
	for i := range outer {
		outer[i] = i
	}
	sums, err := Map(context.Background(), p, outer,
		func(ctx context.Context, _, o int) (int, error) {
			inner := make([]int, 16)
			for i := range inner {
				inner[i] = i
			}
			vs, err := Map(ctx, p, inner,
				func(_ context.Context, _, v int) (int, error) { return o*100 + v, nil })
			if err != nil {
				return 0, err
			}
			sum := 0
			for _, v := range vs {
				sum += v
			}
			return sum, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for o, got := range sums {
		want := o*100*16 + 120
		if got != want {
			t.Fatalf("outer %d: sum %d, want %d", o, got, want)
		}
	}
}

// TestMapBoundedConcurrency: no more tasks run at once than workers
// plus the single submitting goroutine (the inline-fallback bound).
func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var running, peak int32
	items := make([]int, 64)
	_, err := Map(context.Background(), New(workers), items,
		func(_ context.Context, i, _ int) (int, error) {
			n := atomic.AddInt32(&running, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			atomic.AddInt32(&running, -1)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers+1 {
		t.Fatalf("peak concurrency %d, want <= %d", peak, workers+1)
	}
}

// TestRun: Map over index-only tasks runs every index once.
func TestRun(t *testing.T) {
	var sum int32
	if _, err := Map(context.Background(), New(4), make([]struct{}, 10), func(_ context.Context, i int, _ struct{}) (struct{}, error) {
		atomic.AddInt32(&sum, int32(i))
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
}

func TestWorkers(t *testing.T) {
	if got := (*Pool)(nil).Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
	if got := New(0).Workers(); got < 1 {
		t.Fatalf("New(0).Workers() = %d", got)
	}
}

// TestHelpBoundsHelpers: Help starts a helper only for a free token,
// never waits for one, and gets its token back when the work returns; a
// serial pool has none to give.
func TestHelpBoundsHelpers(t *testing.T) {
	var wg sync.WaitGroup
	for _, p := range []*Pool{nil, New(1)} {
		if p.Help(&wg, func() { t.Error("a serial pool started a helper") }) {
			t.Fatalf("Help on a %d-worker pool started a helper", p.Workers())
		}
	}
	p := New(2)
	release := make(chan struct{})
	var ran atomic.Int64
	work := func() {
		<-release
		ran.Add(1)
	}
	for i := 0; i < 2; i++ {
		if !p.Help(&wg, work) {
			t.Fatalf("helper %d not started with a token free", i)
		}
	}
	if p.Help(&wg, work) {
		t.Fatal("a third helper started on a 2-worker pool")
	}
	close(release)
	wg.Wait()
	if ran.Load() != 2 {
		t.Fatalf("%d helpers ran, want 2", ran.Load())
	}
	if !p.Help(&wg, func() {}) {
		t.Fatal("a token was not returned when its helper finished")
	}
	wg.Wait()
}
