package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contention/internal/stats"
)

// chaosSpec is the gate's fault schedule: a pure function of the seed,
// so a failing run is re-playable bit-for-bit.
func chaosGateSpec() ChaosSpec {
	return ChaosSpec{
		Seed:         1996, // Figueira–Berman, HPDC '96
		Replicas:     4,
		Duration:     3 * time.Second,
		KillEvery:    1200 * time.Millisecond,
		StallEvery:   900 * time.Millisecond,
		StallFor:     120 * time.Millisecond,
		DegradeEvery: 1500 * time.Millisecond,
		DegradeFor:   400 * time.Millisecond,
	}
}

// TestChaosPlanDeterministic pins the acceptance property the gate
// rests on: the fault schedule is bit-identical across generations.
func TestChaosPlanDeterministic(t *testing.T) {
	a, err := PlanChaos(chaosGateSpec())
	if err != nil {
		t.Fatalf("PlanChaos: %v", err)
	}
	b, err := PlanChaos(chaosGateSpec())
	if err != nil {
		t.Fatalf("PlanChaos (rerun): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("chaos plan is not deterministic for a fixed seed")
	}
}

// TestChaosGate is the self-healing SLO gate: four real in-process
// replicas (full serve stack) behind the supervisor and router, 16
// closed-loop workers, and a seeded schedule of kills, stalls, and
// calibration degradations replayed mid-load. The fleet must hold
// ≥ 99% success, never go fully dark, and every crashed replica must
// rejoin on its own. It runs the production retry rule and logs the
// load's latency tails.
func TestChaosGate(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos gate runs seconds of wall-clock load")
	}
	spec := chaosGateSpec()
	plan, err := PlanChaos(spec)
	if err != nil {
		t.Fatalf("PlanChaos: %v", err)
	}
	t.Logf("chaos plan: %v over %v", ChaosSummary(plan), spec.Duration)

	goroutinesBefore := runtime.NumGoroutine()

	tun := defaultTuning()
	tun.perTry = 400 * time.Millisecond
	tun.maxInFlight, tun.maxQueue = 64, 256
	tun.timeout, tun.probe = 3*time.Second, 30*time.Millisecond
	c, err := newCluster(Config{
		Replicas: spec.Replicas,
		Factory:  stallableFactory(InProcConfig{Window: 500 * time.Microsecond}),
	}, tun)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	front := httptest.NewServer(c.Handler())

	// Load: 16 closed-loop workers over a small key corpus (identical
	// keys still collapse into batches on whichever replica they meet,
	// even while the fleet churns).
	const workers = 16
	bodies := make([]string, 8)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(
			`{"kind":"comp","dcomp":%d,"contenders":[{"comm_fraction":0.%d,"msg_words":%d}]}`,
			1+i%3, 1+i%8, 100*(i+1))
	}
	runFor := spec.Duration + 500*time.Millisecond
	const bucketWidth = 250 * time.Millisecond
	nBuckets := int(runFor/bucketWidth) + 1

	var (
		total, succ atomic.Int64
		bucketTotal = make([]atomic.Int64, nBuckets)
		bucketSucc  = make([]atomic.Int64, nBuckets)
		failures    sync.Map // status/error string -> *atomic.Int64
		latencies   = make([][]float64, workers)
	)
	countFailure := func(key string) {
		v, _ := failures.LoadOrStore(key, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			defer client.CloseIdleConnections()
			for i := 0; ; i++ {
				elapsed := time.Since(start)
				if elapsed >= runFor {
					return
				}
				bucket := int(elapsed / bucketWidth)
				body := bodies[(w+i)%len(bodies)]
				total.Add(1)
				bucketTotal[bucket].Add(1)
				sent := time.Now()
				resp, err := client.Post(front.URL+"/v1/predict", "application/json", strings.NewReader(body))
				latencies[w] = append(latencies[w], time.Since(sent).Seconds()*1e3)
				if err != nil {
					countFailure("transport: " + err.Error())
					continue
				}
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					succ.Add(1)
					bucketSucc[bucket].Add(1)
				} else {
					countFailure(fmt.Sprintf("status %d", resp.StatusCode))
				}
			}
		}(w)
	}

	// Applier: replay the plan against wall-clock offsets.
	var kills, stalls, degrades int
	for _, e := range plan {
		if d := e.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		rep := c.Replica(e.Target)
		if rep == nil {
			continue // target is down; the fault has no one to hit
		}
		switch e.Kind {
		case ChaosKill:
			rep.Kill()
			kills++
		case ChaosStall:
			if s, ok := rep.(*stallableReplica); ok {
				s.StallFor(e.For)
				stalls++
			}
		case ChaosDegrade:
			if d, ok := rep.(Degrader); ok {
				d.Degrade("chaos")
				degrades++
			}
		case ChaosRecover:
			if d, ok := rep.(Degrader); ok {
				d.Recover()
			}
		}
	}
	wg.Wait()
	t.Logf("applied: %d kills, %d stalls, %d degrades", kills, stalls, degrades)
	if kills == 0 {
		t.Fatal("chaos plan applied no kills — the gate is not exercising crash-restart")
	}

	// SLO: ≥ 99% success across the whole run.
	tot, ok := total.Load(), succ.Load()
	if tot == 0 {
		t.Fatal("no requests issued")
	}
	rate := float64(ok) / float64(tot)
	failSummary := ""
	failures.Range(func(k, v any) bool {
		failSummary += fmt.Sprintf(" [%v ×%d]", k, v.(*atomic.Int64).Load())
		return true
	})
	t.Logf("requests: %d, success: %d (%.3f%%)%s", tot, ok, 100*rate, failSummary)
	t.Logf("latency: %s", latencyTails(latencies))
	if rate < 0.99 {
		t.Errorf("success rate %.3f%% < 99%%:%s", 100*rate, failSummary)
	}

	// Availability never hits zero: every bucket with real volume has
	// at least one success.
	for i := 0; i < nBuckets; i++ {
		bt, bs := bucketTotal[i].Load(), bucketSucc[i].Load()
		if bt >= 20 && bs == 0 {
			t.Errorf("availability hit zero in bucket %d (%d requests, 0 successes)", i, bt)
		}
	}

	// Self-healing: every killed replica rejoins without intervention.
	deadline := time.After(5 * time.Second)
	for c.UpCount() != spec.Replicas {
		select {
		case <-deadline:
			t.Fatalf("fleet never healed: %d/%d up, members %+v",
				c.UpCount(), spec.Replicas, c.Members())
		case <-time.After(10 * time.Millisecond):
		}
	}
	restarts := 0
	for _, m := range c.Members() {
		if m.State != "up" {
			t.Errorf("member %d state %q after healing window", m.ID, m.State)
		}
		restarts += m.Restarts
	}
	if restarts < kills {
		t.Errorf("%d restarts for %d kills — some crashes were not healed", restarts, kills)
	}

	// Service is still correct after the storm.
	resp, err := front.Client().Post(front.URL+"/v1/predict", "application/json", strings.NewReader(bodies[0]))
	if err != nil {
		t.Fatalf("post-chaos predict: %v", err)
	}
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["value"] == nil {
		t.Fatalf("post-chaos predict = %d %v", resp.StatusCode, out)
	}

	// Clean teardown, then no goroutine leaks.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	front.Close()
	leakDeadline := time.After(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+4 {
			break
		}
		select {
		case <-leakDeadline:
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// latencyTails formats the p50, p99, p99.9 and max of the workers'
// request latencies, in milliseconds, so a gate's log carries the tails
// of the load it drove.
func latencyTails(perWorker [][]float64) string {
	ms := slices.Concat(perWorker...)
	q := func(p float64) float64 {
		v, _ := stats.Quantile(ms, p) // never empty: the gate issued requests
		return v
	}
	return fmt.Sprintf("p50 %.2fms, p99 %.2fms, p99.9 %.2fms, max %.2fms", q(0.5), q(0.99), q(0.999), q(1))
}
