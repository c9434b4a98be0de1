package cluster

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"
)

// reuseWriter is a ResponseWriter that keeps one header map and one body
// buffer across requests and allocates nothing itself, so a handler's
// allocations are its own.
type reuseWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *reuseWriter) Header() http.Header { return w.h }

func (w *reuseWriter) WriteHeader(status int) { w.status = status }

func (w *reuseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// TestRouterHopAllocations pins the allocations of one JSON predict
// through the router's handler over two in-process replicas — the
// router, the frame hop and the replica's batched path together, with
// no prober running: the ladder's cluster.handler_allocs rung. The
// ceiling is the count measured on go1.24.0 (1): the router makes none
// per try and keeps the forwarded record in its pooled hop buffer, the
// replica's batched path makes none, and each frame costs its
// goroutine. A per-try context (+4) or an HTTP round
// trip back on the hop (+60 or so) trips it.
func TestRouterHopAllocations(t *testing.T) {
	c, err := newCluster(Config{
		Replicas: 2,
		Factory:  InProcessFactory(InProcConfig{}),
	}, tunedWith(func(tun *tuning) { tun.probe = time.Hour }))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	h := c.Handler()
	body := []byte(predictBody(1))
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", rewindBody{rd})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(body))
	w := &reuseWriter{h: http.Header{}}
	do := func() {
		rd.Reset(body)
		clear(w.h)
		w.status, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 50; i++ { // connections, pools, lazy init
		do()
		if w.status != http.StatusOK {
			t.Fatalf("warmup %d: status %d %q", i, w.status, w.body)
		}
	}
	allocs := testing.AllocsPerRun(300, do)
	t.Logf("router hop: %.1f allocs/request", allocs)
	if w.status != http.StatusOK {
		t.Fatalf("status %d %q", w.status, w.body)
	}
	ceiling := 1.0
	if raceEnabled {
		ceiling = 17 // measured 13–14
	}
	if allocs > ceiling {
		t.Fatalf("router hop allocates %.1f objects/request, ceiling %.0f", allocs, ceiling)
	}
}
