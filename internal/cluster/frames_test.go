package cluster

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
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
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
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
	rep := c.Replica(0).(*InProcReplica)
	srv := rep.Server()
	h := c.Handler()
	reached := func() (n float64) { // requests the replica's predict saw
		for _, v := range obs.Default().Snapshot().Labelled(obs.MetricServeRequests) {
			n += v
		}
		return n
	}
	before := reached()
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
	if reached() == before {
		t.Fatal("no try reached the replica, so nothing above was tested")
	}
	// Every slot came back: degraded, so that it skips the hour-long
	// window, a request straight to the replica is admitted and answered.
	rep.Degrade("test")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody(0))))
	if rec.Code != http.StatusOK {
		t.Fatalf("direct predict after the router gave up = %d %s, want 200", rec.Code, rec.Body)
	}
}

// TestFrameWriteHonoursTryDeadline: a member that answers the frames
// upgrade and then never reads cannot hold a try past the try's
// deadline — neither the try whose write fills the socket nor the tries
// queued behind it for the connection's write lock.
func TestFrameWriteHonoursTryDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() { // unblocks any write still stuck, on a failure
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			if _, err := http.ReadRequest(bufio.NewReader(conn)); err == nil {
				_, _ = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+
					serve.FrameProtocol+"\r\n\r\n")
			}
		}
	}()

	fc := newFrameClient(ln.Addr().String())
	defer fc.close()
	meta := &reqMeta{rec: make([]byte, 1<<20)}
	const tries = 8 // 8 MiB: more than the socket buffers hold
	errs := make(chan error, tries)
	for i := 0; i < tries; i++ {
		go func() {
			_, err := fc.call(context.Background(), time.Now().Add(50*time.Millisecond), meta, obs.TraceContext{})
			errs <- err
		}()
	}
	timeout := time.After(3 * time.Second)
	for i := 0; i < tries; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a try to a member that never answers succeeded")
			}
		case <-timeout:
			t.Fatalf("%d of %d tries still blocked 3s after their 50ms deadline", tries-i, tries)
		}
	}
}

// TestSpentTryKeepsConnection: a try whose deadline has lapsed before
// its frame is written withdraws only itself. The member's shared frame
// connection stays up, the call already pending on it gets its answer,
// and the member's breaker records no failure.
func TestSpentTryKeepsConnection(t *testing.T) {
	c, fl, front := newTestCluster(t, 1, func(cfg *Config) {
		cfg.ProbeInterval = time.Hour
		cfg.Breaker = BreakerConfig{MinVolume: 100, Cooldown: time.Hour}
	})
	if code, _ := postPredict(t, front, predictBody(0)); code != http.StatusOK {
		t.Fatal("warmup predict failed")
	}
	m := c.memberByID(0)
	fc := m.frames()
	fc.mu.Lock()
	conn := fc.cur
	fc.mu.Unlock()
	vol0, _ := m.breaker.Stats()
	fl.current(0).stallMS.Store(200)

	codes := make(chan int, 1)
	go func() {
		resp, err := front.Client().Post(front.URL+"/v1/predict", "application/json", strings.NewReader(predictBody(1)))
		if err != nil {
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	waitFor(t, "a call pending on the frame connection", 2*time.Second, func() bool {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(conn.pending) == 1
	})
	_, err := fc.call(context.Background(), time.Now().Add(-time.Millisecond), &reqMeta{rec: []byte{0}}, obs.TraceContext{})
	if err != errTryTimeout {
		t.Fatalf("spent try: err %v, want errTryTimeout", err)
	}
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("pending call: status %d, want 200", code)
	}
	fc.mu.Lock()
	same := fc.cur == conn
	fc.mu.Unlock()
	if !same {
		t.Fatal("the spent try tore down the frame connection")
	}
	if vol, rate := m.breaker.Stats(); vol != vol0+1 || rate != 0 {
		t.Fatalf("breaker: volume %d (was %d), fail rate %.2f — want one success and no failure", vol, vol0, rate)
	}
}
