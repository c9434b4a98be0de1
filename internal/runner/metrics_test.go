package runner

import (
	"context"
	"sync/atomic"
	"testing"

	"contention/internal/obs"
)

// TestPoolMetricsMove checks the pool's task accounting with telemetry
// on: every Map item is counted exactly once, a parallel pool records
// at least one async execution, the in-flight count settles back to its
// starting level, and the in-flight high-water mark saw a task.
func TestPoolMetricsMove(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })

	const n = 16
	t0, a0 := mTasks.Value(), mAsync.Value()
	inflight0 := inFlight.Load()
	// The first two tasks to start wait for each other, so one of them
	// runs on a helper: left alone, the caller may claim every tiny item
	// before a helper goroutine gets going.
	var started atomic.Int32
	both := make(chan struct{})
	_, err := Map(context.Background(), New(2), make([]struct{}, n),
		func(context.Context, int, struct{}) (struct{}, error) {
			if k := started.Add(1); k <= 2 {
				if k == 2 {
					close(both)
				}
				<-both
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if d := mTasks.Value() - t0; d != n {
		t.Fatalf("task counter moved by %d, want %d", d, n)
	}
	if d := mAsync.Value() - a0; d < 1 {
		t.Fatalf("async counter moved by %d on a 2-worker pool, want ≥ 1", d)
	}
	if got := inFlight.Load(); got != inflight0 {
		t.Fatalf("in-flight count = %v after completion, want %v", got, inflight0)
	}
	if mMaxInFlight.Value() < 1 {
		t.Fatalf("max in-flight high-water = %v, want ≥ 1", mMaxInFlight.Value())
	}
}

// TestSerialPoolCountsInline checks that a serial pool's tasks are all
// accounted as inline: the serial loop is the degenerate "no token
// free" case of the pool.
func TestSerialPoolCountsInline(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })

	const n = 8
	t0, i0, a0 := mTasks.Value(), mInline.Value(), mAsync.Value()
	_, err := Map(context.Background(), nil, make([]struct{}, n),
		func(context.Context, int, struct{}) (struct{}, error) {
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if d := mTasks.Value() - t0; d != n {
		t.Fatalf("task counter moved by %d, want %d", d, n)
	}
	if d := mInline.Value() - i0; d != n {
		t.Fatalf("inline counter moved by %d, want %d", d, n)
	}
	if d := mAsync.Value() - a0; d != 0 {
		t.Fatalf("async counter moved by %d on a serial pool, want 0", d)
	}
}
