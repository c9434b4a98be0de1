package rm

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestAdmissionDrainWaitsForInFlight(t *testing.T) {
	a := NewAdmission(4, 4)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := a.Acquire(ctx, nil); err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
	}

	done := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		done <- a.Drain(dctx)
	}()

	// Drain must not return while work is in flight.
	select {
	case err := <-done:
		t.Fatalf("Drain returned with 3 in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	for i := 0; i < 3; i++ {
		a.Release()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain never returned after all releases")
	}
}

func TestAdmissionDrainHonorsContext(t *testing.T) {
	a := NewAdmission(1, 1)
	if err := a.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer a.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := a.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain under stuck in-flight = %v, want deadline exceeded", err)
	}
}

func TestAdmissionDrainEmptyReturnsImmediately(t *testing.T) {
	a := NewAdmission(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain on idle admission: %v", err)
	}
}
