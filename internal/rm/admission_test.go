package rm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmissionImmediate(t *testing.T) {
	a := NewAdmission(2, 0)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("in-flight %d, want 2", got)
	}
	// No waiting allowed: the third is rejected immediately.
	if err := a.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire: %v, want ErrQueueFull", err)
	}
	a.Release()
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	a.Release()
	a.Release()
}

func TestAdmissionWaitsThenAdmits(t *testing.T) {
	a := NewAdmission(1, 1)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	got := make(chan error, 1)
	go func() { got <- a.Acquire(context.Background()) }()
	deadline := time.Now().Add(time.Second)
	for a.Waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	a.Release()
	if err := <-got; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	a.Release()
}

func TestAdmissionTimeout(t *testing.T) {
	a := NewAdmission(1, 4)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := a.Acquire(ctx)
	if !errors.Is(err, ErrSubmitTimeout) {
		t.Fatalf("waiter: %v, want ErrSubmitTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter error does not wrap ctx cause: %v", err)
	}
	if a.Waiting() != 0 {
		t.Fatalf("waiting %d after timeout, want 0", a.Waiting())
	}
	a.Release()
}

// TestAcquireUntil: a free slot is taken even past the deadline (no
// wait, so nothing to bound); a full controller waits until the
// deadline, or with a zero deadline until ctx ends, and reports the
// cause as Acquire does.
func TestAcquireUntil(t *testing.T) {
	a := NewAdmission(1, 4)
	if err := a.AcquireUntil(context.Background(), time.Now().Add(-time.Second)); err != nil {
		t.Fatalf("free slot past the deadline: %v, want admission", err)
	}
	start := time.Now()
	err := a.AcquireUntil(context.Background(), start.Add(20*time.Millisecond))
	if !errors.Is(err, ErrSubmitTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full controller: %v, want ErrSubmitTimeout wrapping the deadline", err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("gave up after %v, before the deadline", el)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if err := a.AcquireUntil(ctx, time.Time{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("zero deadline, canceled ctx: %v, want ErrSubmitTimeout wrapping Canceled", err)
	}
	if a.InFlight() != 1 || a.Waiting() != 0 {
		t.Fatalf("in-flight %d waiting %d after two timeouts, want 1 and 0", a.InFlight(), a.Waiting())
	}
	a.Release()
}

func TestAdmissionQueueBound(t *testing.T) {
	a := NewAdmission(1, 2)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Acquire(ctx) // parked until cancel
		}()
	}
	deadline := time.Now().Add(time.Second)
	for a.Waiting() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked (waiting %d)", a.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound acquire: %v, want ErrQueueFull", err)
	}
	cancel()
	wg.Wait()
	a.Release()
}

func TestAdmissionConcurrentStress(t *testing.T) {
	a := NewAdmission(4, 64)
	var wg sync.WaitGroup
	var held sync.Map
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := a.Acquire(ctx); err != nil {
				if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrSubmitTimeout) {
					t.Errorf("worker %d: unexpected error %v", i, err)
				}
				return
			}
			held.Store(i, true)
			if n := a.InFlight(); n > 4 {
				t.Errorf("in-flight %d exceeds bound", n)
			}
			time.Sleep(time.Millisecond)
			a.Release()
		}(i)
	}
	wg.Wait()
	if a.InFlight() != 0 || a.Waiting() != 0 {
		t.Fatalf("leaked slots: in-flight %d waiting %d", a.InFlight(), a.Waiting())
	}
}
