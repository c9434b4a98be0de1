package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"contention/internal/core"
	"contention/internal/runner"
)

// TestWarmPredictorStaysAllocationFree re-asserts the core 0 allocs/op
// contract from inside the serve package: linking the serving layer
// (its metric registrations run at init) must not add allocations to
// the direct-call prediction path the daemon's batcher sits on.
func TestWarmPredictorStaysAllocationFree(t *testing.T) {
	p := newTestPredictor(t)
	cs := []core.Contender{
		{CommFraction: 0.25, MsgWords: 600},
		{CommFraction: 0.40, MsgWords: 1500, IOFraction: 0.1},
	}
	sets := []core.DataSet{{N: 400, Words: 512}}
	if _, err := p.PredictComm(core.HostToBack, sets, cs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictComp(2, cs); err != nil {
		t.Fatal(err)
	}
	commAllocs := testing.AllocsPerRun(200, func() {
		if _, err := p.PredictComm(core.HostToBack, sets, cs); err != nil {
			t.Fatal(err)
		}
	})
	if commAllocs != 0 {
		t.Fatalf("warm PredictComm allocates %.1f objects/op with serve linked, want 0", commAllocs)
	}
	compAllocs := testing.AllocsPerRun(200, func() {
		if _, err := p.PredictComp(2, cs); err != nil {
			t.Fatal(err)
		}
	})
	if compAllocs != 0 {
		t.Fatalf("warm PredictComp allocates %.1f objects/op with serve linked, want 0", compAllocs)
	}
}

// jsonPredictor drives one JSON predict body through a handler with a
// reused request, body reader and response writer, so what it measures
// is the handler's own allocations.
type jsonPredictor struct {
	h    http.Handler
	body []byte
	rd   *bytes.Reader
	req  *http.Request
	w    *reuseWriter
}

func newJSONPredictor(h http.Handler, body string) *jsonPredictor {
	p := &jsonPredictor{h: h, body: []byte(body), w: &reuseWriter{h: http.Header{}}}
	p.rd = bytes.NewReader(p.body)
	p.req = httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	p.req.Header.Set("Content-Type", "application/json")
	p.req.Body = rewindBody{p.rd}
	return p
}

func (p *jsonPredictor) do() {
	p.rd.Reset(p.body)
	p.w.reset()
	p.h.ServeHTTP(p.w, p.req)
}

func (p *jsonPredictor) check(t *testing.T, when string) {
	t.Helper()
	if p.w.status != http.StatusOK {
		t.Fatalf("%s: status %d %q", when, p.w.status, p.w.body)
	}
}

const (
	batchedCompBody = `{"kind":"comp","dcomp":2.5,"contenders":[{"comm_fraction":0.25,"msg_words":500},{"comm_fraction":0.4,"msg_words":1500}]}`
	batchedCommBody = `{"kind":"comm","dir":"to_back","sets":[{"n":40,"words":512},{"n":3,"words":4096}],"contenders":[{"comm_fraction":0.3,"msg_words":800}]}`
)

// TestBatchedJSONHandlerAllocations pins the allocations of one JSON
// predict through the mux on the batched path (default 1 ms window, no
// fast path), the batch flush included: the ladder's
// serve.handler_json_allocs rung, for a comp and a comm (data sets)
// query. The parked request, its group, the window timer and the batch
// call's scratch are all reused, so the count measured on go1.24.0 is
// 0: a clone of the query (+1 or +2), a per-window timer (+2) or a
// per-request deadline context (+5) trips it.
func TestBatchedJSONHandlerAllocations(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"comp", batchedCompBody},
		{"comm", batchedCommBody},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Pred: newTestPredictor(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			p := newJSONPredictor(s.Handler(), tc.body)
			for i := 0; i < 20; i++ {
				p.do()
				p.check(t, fmt.Sprintf("warmup %d", i))
			}
			allocs := testing.AllocsPerRun(300, p.do)
			t.Logf("batched JSON handler (%s): %.2f allocs/request", tc.name, allocs)
			p.check(t, "measured run")
			ceiling := 0.0
			if raceEnabled {
				ceiling = 9 // measured 5–6: sync.Pool drops a share of what it is given
			}
			if allocs > ceiling {
				t.Fatalf("batched JSON handler allocates %.2f objects/request, ceiling %.0f", allocs, ceiling)
			}
		})
	}
}

// TestBatchedTwoGroupFlushAllocations pins a window that flushes two
// groups on a pool: two requests with different keys park together, the
// flushing goroutine evaluates one group and a pool helper the other.
// The helper's goroutine closure is the only allocation the flush may
// make — at most one per request in all.
func TestBatchedTwoGroupFlushAllocations(t *testing.T) {
	s, err := New(Config{Pred: newTestPredictor(t), Pool: runner.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var flushes atomic.Int64
	s.flushStall = func() { flushes.Add(1) }
	a := newJSONPredictor(s.Handler(), batchedCompBody)
	b := newJSONPredictor(s.Handler(), batchedCommBody)
	// b runs on one long-lived goroutine, so starting it costs nothing.
	start, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range start {
			b.do()
			done <- struct{}{}
		}
	}()
	defer close(start)
	pair := func() {
		start <- struct{}{}
		a.do()
		<-done
	}
	for i := 0; i < 20; i++ {
		pair()
		a.check(t, fmt.Sprintf("warmup %d", i))
		b.check(t, fmt.Sprintf("warmup %d", i))
	}
	const runs = 300
	f0 := flushes.Load()
	allocs := testing.AllocsPerRun(runs, pair) / 2
	shared := 2*(runs+1) - int(flushes.Load()-f0)
	t.Logf("two-group flush: %.2f allocs/request; %d of %d pairs shared one window", allocs, shared, runs+1)
	a.check(t, "measured run")
	b.check(t, "measured run")
	if shared == 0 {
		t.Fatal("no window flushed both groups: the test lost its point")
	}
	ceiling := 1.0
	if raceEnabled {
		ceiling = 9 // measured 6.5–7
	}
	if allocs > ceiling {
		t.Fatalf("two-group flush allocates %.2f objects/request, ceiling %.0f", allocs, ceiling)
	}
}
