package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"contention/internal/obs"
	"contention/internal/serve"
)

// TestKillSeversFrames: a killed in-process replica resets its frame
// connections — a frame parked in its batcher is not answered, not even
// by the flush that Close would run.
func TestKillSeversFrames(t *testing.T) {
	rep, err := InProcessFactory(InProcConfig{Window: time.Hour})(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Kill()
	conn, br, err := serve.DialFrames(context.Background(), rep.Addr(), time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	d := 1.0
	rec, err := serve.AppendBinaryRequest(nil, &serve.Request{Kind: "comp", Dcomp: &d,
		Contenders: []serve.ContenderSpec{{CommFraction: 0.3, MsgWords: 100}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(serve.AppendRequestFrame(nil, 1, 10*time.Second, "", rec, obs.TraceContext{})); err != nil {
		t.Fatal(err)
	}
	srv := rep.(*InProcReplica).Server()
	waitFor(t, "the frame to park", 5*time.Second, func() bool { return srv.Admission().InFlight() == 1 })
	rep.Kill()
	if _, status, _, _, err := serve.ReadResponseFrame(br, nil); err == nil {
		t.Fatalf("killed replica answered %d; want the connection severed", status)
	}
}

// TestKillMidRequestFailsOver: a replica killed while it holds a request
// costs that request one try, not PerTryTimeout — the severed frame
// connection fails the call at once and the other replica answers.
func TestKillMidRequestFailsOver(t *testing.T) {
	c, err := New(Config{
		Replicas:      2,
		Factory:       InProcessFactory(InProcConfig{Window: 300 * time.Millisecond}),
		PerTryTimeout: 10 * time.Second,
		Timeout:       20 * time.Second,
		ProbeInterval: time.Hour,
		RestartBase:   time.Hour,
	})
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
	type result struct {
		code    int
		elapsed time.Duration
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody(7)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- result{rec.Code, time.Since(start)}
	}()
	var holder Replica
	waitFor(t, "a replica to hold the request", 5*time.Second, func() bool {
		for id := 0; id < 2; id++ {
			if r, ok := c.Replica(id).(*InProcReplica); ok && r.Server().Admission().InFlight() == 1 {
				holder = r
				return true
			}
		}
		return false
	})
	holder.Kill()
	res := <-done
	if res.code != http.StatusOK {
		t.Fatalf("request through a killed replica = %d, want 200 from the other", res.code)
	}
	if res.elapsed > 5*time.Second {
		t.Fatalf("failover took %v, want one batch window, not PerTryTimeout", res.elapsed)
	}
}

// TestShutdownLeavesNoGoroutines: after Shutdown nothing the cluster
// started is still running — supervision, the replicas' servers and
// frame loops, and the router's frame readers.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := New(Config{
		Replicas: 2,
		Factory:  InProcessFactory(InProcConfig{Window: 200 * time.Microsecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	for i := 0; i < 40; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody(i)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %d = %d %s", i, rec.Code, rec.Body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Shutdown\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubMillisecondBudgetReachesReplica: a try with half a millisecond
// left hands the replica that budget, so the replica lets go of the
// request within about that, not after its hour-long batch window or
// its own Timeout — nothing else tells it the router gave up.
func TestSubMillisecondBudgetReachesReplica(t *testing.T) {
	c, err := New(Config{
		Replicas:      1,
		Factory:       InProcessFactory(InProcConfig{Window: time.Hour}),
		Timeout:       500 * time.Microsecond,
		ProbeInterval: time.Hour,
	})
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
	// Dial the link first: half a millisecond is not always enough for a
	// dial and an upgrade, and a try that never sends proves nothing.
	if _, err := c.memberByID(0).frames().conn(context.Background(), time.Now().Add(5*time.Second), nil); err != nil {
		t.Fatal(err)
	}
	srv := c.Replica(0).(*InProcReplica).Server()
	h := c.Handler()
	for i := 0; i < 10; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody(i)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("predict %d = %d %s, want 504", i, rec.Code, rec.Body)
		}
		start := time.Now()
		for srv.Admission().InFlight() != 0 {
			if time.Since(start) > 50*time.Millisecond {
				t.Fatalf("predict %d: the replica still holds it %v after the router gave up", i, time.Since(start))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if got := srv.Admission().Stats().Admitted; got == 0 {
		t.Fatal("no try reached the replica")
	}
}
