package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"contention/internal/core"
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

// TestBatchedJSONHandlerAllocations pins the allocations of one JSON
// predict through the mux on the batched path (default 1 ms window, no
// fast path), the batch flush included: the ladder's
// serve.handler_json_allocs rung. The ceiling is the count measured on
// go1.24.0 (13) rounded up: a per-request deadline context (+5) trips
// it.
func TestBatchedJSONHandlerAllocations(t *testing.T) {
	s, err := New(Config{Pred: newTestPredictor(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"kind":"comp","dcomp":2.5,"contenders":[{"comm_fraction":0.25,"msg_words":500},{"comm_fraction":0.4,"msg_words":1500}]}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	req.Header.Set("Content-Type", "application/json")
	req.Body = rewindBody{rd}
	w := &reuseWriter{h: http.Header{}}
	do := func() {
		rd.Reset(body)
		w.reset()
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 20; i++ {
		do()
		if w.status != http.StatusOK {
			t.Fatalf("warmup %d: status %d %q", i, w.status, w.body)
		}
	}
	allocs := testing.AllocsPerRun(300, do)
	t.Logf("batched JSON handler: %.2f allocs/request", allocs)
	if w.status != http.StatusOK {
		t.Fatalf("status %d %q", w.status, w.body)
	}
	ceiling := 14.0
	if raceEnabled {
		ceiling = 17 // measured 14–15
	}
	if allocs > ceiling {
		t.Fatalf("batched JSON handler allocates %.2f objects/request, ceiling %.0f", allocs, ceiling)
	}
}
