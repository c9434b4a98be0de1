package rm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestAdmissionImmediate(t *testing.T) {
	a := NewAdmission(2, 0)
	if err := a.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := a.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("in-flight %d, want 2", got)
	}
	// No waiting allowed: the third is rejected immediately.
	if err := a.Acquire(context.Background(), nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire: %v, want ErrQueueFull", err)
	}
	a.Release()
	if err := a.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	a.Release()
	a.Release()
}

func TestAdmissionWaitsThenAdmits(t *testing.T) {
	a := NewAdmission(1, 1)
	if err := a.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	got := make(chan error, 1)
	go func() { got <- a.Acquire(context.Background(), nil) }()
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

// waitParked yields until n waiters are parked for a slot.
func waitParked(a *Admission, n int) {
	for a.Waiting() < n {
		runtime.Gosched()
	}
}

// TestAdmissionTimeout: a waiter whose context ends is refused with
// ErrSubmitTimeout wrapping the context's error, and leaves the queue.
func TestAdmissionTimeout(t *testing.T) {
	a := NewAdmission(1, 4)
	if err := a.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- a.Acquire(ctx, nil) }()
	waitParked(a, 1)
	select {
	case err := <-got:
		t.Fatalf("waiter returned %v before its context ended", err)
	default:
	}
	cancel()
	err := <-got
	if !errors.Is(err, ErrSubmitTimeout) {
		t.Fatalf("waiter: %v, want ErrSubmitTimeout", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error does not wrap ctx cause: %v", err)
	}
	// A context whose deadline has passed refuses at once, with the
	// deadline as the cause.
	past, cancelPast := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelPast()
	if err := a.Acquire(past, nil); !errors.Is(err, ErrSubmitTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter past its deadline: %v, want ErrSubmitTimeout wrapping DeadlineExceeded", err)
	}
	if a.Waiting() != 0 {
		t.Fatalf("waiting %d after timeout, want 0", a.Waiting())
	}
	a.Release()
}

// TestAcquireUntil: a free slot is taken even when the deadline has
// already passed (no wait, so nothing to bound); a full controller
// waits until its deadline's channel delivers, or with none until ctx
// ends, and reports the cause.
func TestAcquireUntil(t *testing.T) {
	a := NewAdmission(1, 4)
	spent := make(chan struct{})
	close(spent)
	if err := a.Acquire(context.Background(), spent); err != nil {
		t.Fatalf("free slot past the deadline: %v, want admission", err)
	}
	expired := make(chan struct{}, 1)
	got := make(chan error, 1)
	go func() { got <- a.Acquire(context.Background(), expired) }()
	waitParked(a, 1)
	select {
	case err := <-got:
		t.Fatalf("full controller gave up with %v before its deadline", err)
	default:
	}
	expired <- struct{}{}
	if err := <-got; !errors.Is(err, ErrSubmitTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full controller: %v, want ErrSubmitTimeout wrapping the deadline", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { got <- a.Acquire(ctx, nil) }()
	waitParked(a, 1)
	cancel()
	if err := <-got; !errors.Is(err, ErrSubmitTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("no deadline, canceled ctx: %v, want ErrSubmitTimeout wrapping Canceled", err)
	}
	if a.InFlight() != 1 || a.Waiting() != 0 {
		t.Fatalf("in-flight %d waiting %d after two timeouts, want 1 and 0", a.InFlight(), a.Waiting())
	}
	a.Release()
}

func TestAdmissionQueueBound(t *testing.T) {
	a := NewAdmission(1, 2)
	if err := a.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Acquire(ctx, nil) // parked until cancel
		}()
	}
	deadline := time.Now().Add(time.Second)
	for a.Waiting() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked (waiting %d)", a.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.Acquire(context.Background(), nil); !errors.Is(err, ErrQueueFull) {
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
			if err := a.Acquire(ctx, nil); err != nil {
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
