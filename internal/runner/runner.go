// Package runner is the bounded parallel-execution engine behind the
// experiment suite. It fans work items out over a fixed-size worker
// pool while guaranteeing deterministic, in-order results: Map returns
// results indexed exactly like its input, and the error it reports is
// always the lowest-index error, independent of goroutine scheduling.
// Combined with experiment drivers whose per-point simulations are
// self-contained (fresh DES kernel, locally seeded RNGs), this makes
// the parallel path byte-identical to the serial one.
//
// The pool bounds *additional* concurrency with a token bucket: the
// goroutine that calls Map works through the items itself and, for
// every token it can get, a helper goroutine works beside it; nobody
// ever waits for a token. That keeps nested Map calls (drivers fanned
// out by the suite, sweep points fanned out by each driver)
// deadlock-free while the total number of running tasks stays within
// workers + the number of callers.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds how many tasks may execute concurrently. The zero value
// and nil are both valid and mean "serial": Map degenerates to a plain
// loop. Pools are goroutine-safe and intended to be shared, so that
// nested fan-outs draw from one budget.
type Pool struct {
	workers int
	tokens  chan struct{}
}

// New returns a pool allowing up to workers concurrent tasks.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers)}
}

// Serial returns a pool that runs everything inline, in input order.
func Serial() *Pool { return nil }

// Workers reports the concurrency bound (1 for a serial pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// serial reports whether the pool degenerates to a plain loop.
func (p *Pool) serial() bool { return p.Workers() == 1 }

// help starts a pool goroutine running work when a token is free and
// reports whether it did; the goroutine returns the token and signals
// wg when work returns.
func (p *Pool) help(wg *sync.WaitGroup, work func()) bool {
	select {
	case p.tokens <- struct{}{}:
		wg.Add(1)
		go func() {
			defer func() {
				<-p.tokens
				wg.Done()
			}()
			work()
		}()
		return true
	default:
		return false
	}
}

// indexedErr pairs an error with the input index it occurred at, so the
// parallel path can report the same error the serial path would have
// hit first.
type indexedErr struct {
	index int
	err   error
}

// Map applies fn to every item and returns the results in input order.
// fn receives the item's index and value. On a serial pool, or for a
// single item, it is a plain loop that stops at the first error. On a parallel pool all
// items are attempted unless the caller's ctx is done (work already in
// flight is not interrupted, but the ctx handed to fn is cancelled as
// soon as any item fails, so cooperative fns can bail early) and the
// error returned is the one with the lowest input index — deterministic
// regardless of scheduling. A fn that returns context.Canceled because
// of that internal cancellation is echoing another item's failure; its
// error is not a candidate.
func Map[In, Out any](ctx context.Context, p *Pool, items []In, fn func(ctx context.Context, index int, item In) (Out, error)) ([]Out, error) {
	out := make([]Out, len(items))
	if p.serial() || len(items) <= 1 { // nothing to fan out
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var v Out
			var err error
			runTask(func() { v, err = fn(ctx, i, it) }, false)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	// ctx stays the caller's; fn runs under work, cancelled on the first
	// failure.
	work, cancel := context.WithCancel(ctx)
	defer cancel()
	// One allocation for everything the helpers share with the caller.
	var st struct {
		wg        sync.WaitGroup
		mu        sync.Mutex // guards first
		first     *indexedErr
		unclaimed atomic.Int64
	}
	record := func(i int, err error) {
		st.mu.Lock()
		if st.first == nil || i < st.first.index {
			st.first = &indexedErr{index: i, err: err}
		}
		st.mu.Unlock()
		cancel()
	}
	one := func(i int) {
		if err := ctx.Err(); err != nil {
			record(i, err)
			return
		}
		v, err := fn(work, i, items[i])
		if err != nil {
			// work done while the caller's ctx is not means record
			// already holds the failure that cancelled it.
			if ctx.Err() == nil && work.Err() != nil && errors.Is(err, context.Canceled) {
				return
			}
			record(i, err)
			return
		}
		out[i] = v
	}
	// The caller and its helpers claim indices from one counter, highest
	// first: sweeps list their points in ascending size, so the longest
	// item starts first instead of running alone at the end. A claim is
	// 1/64 of the list — one item for anything a sweep produces — so a
	// long list of tiny items does not serialize on the counter.
	st.unclaimed.Store(int64(len(items)))
	chunk := int64(1 + len(items)/64)
	claim := func(async bool) bool {
		hi := st.unclaimed.Add(-chunk) + chunk
		for i := hi - 1; i >= max(hi-chunk, 0); i-- {
			runTask(func() { one(int(i)) }, async)
		}
		return hi > 0
	}
	helper := func() {
		for claim(true) {
		}
	}
	// Before each claim of its own the caller offers the rest to every
	// free token: one released by a sibling Map becomes a helper here.
	for more := true; more; more = claim(false) {
		for st.unclaimed.Load() > chunk && p.help(&st.wg, helper) {
		}
	}
	st.wg.Wait()
	if st.first != nil {
		return nil, st.first.err
	}
	return out, nil
}

// Run is Map for index-only tasks with no results.
func Run(ctx context.Context, p *Pool, n int, fn func(ctx context.Context, index int) error) error {
	idx := make([]struct{}, n)
	_, err := Map(ctx, p, idx, func(ctx context.Context, i int, _ struct{}) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}
