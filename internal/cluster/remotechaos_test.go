package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// remoteChaosSpec is the remote gate's fault schedule: seeded, so a
// failing run is re-playable bit-for-bit against the same wire faults.
func remoteChaosSpec() NetChaosSpec {
	return NetChaosSpec{
		Seed:           1996, // Figueira–Berman, HPDC '96
		Links:          3,
		Duration:       3 * time.Second,
		LatencyEvery:   500 * time.Millisecond,
		LatencyFor:     200 * time.Millisecond,
		LatencyAdd:     20 * time.Millisecond,
		ResetEvery:     700 * time.Millisecond,
		StallEvery:     900 * time.Millisecond,
		StallFor:       120 * time.Millisecond,
		PartitionEvery: 1200 * time.Millisecond,
		PartitionFor:   350 * time.Millisecond,
	}
}

// buildContentiond compiles the daemon into a per-test dir. The child
// processes are the real binary — the remote gate exercises the same
// artifact operators deploy, not an in-process stand-in.
func buildContentiond(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "contentiond")
	cmd := exec.Command("go", "build", "-o", bin, "contention/cmd/contentiond")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build contentiond: %v\n%s", err, out)
	}
	return bin
}

// TestRemoteChaosGate is the multi-host SLO gate: real contentiond
// child processes joined as remote members, each reached through the
// in-package chaos proxy (chaosproxy_test.go) that injects a seeded schedule of latency, resets,
// stalls, and partitions mid-load. The fleet must hold ≥99% success,
// never go fully dark in any 250ms bucket, mark partitioned members
// suspect once past their probe deadline, and readmit them after
// the partition heals. It runs the production retry rule and logs the
// load's latency tails.
func TestRemoteChaosGate(t *testing.T) {
	if testing.Short() {
		t.Skip("remote chaos gate builds a binary and runs seconds of wall-clock load")
	}
	spec := remoteChaosSpec()
	plan, err := PlanNetChaos(spec)
	if err != nil {
		t.Fatalf("PlanNetChaos: %v", err)
	}
	t.Logf("net chaos plan: %v over %v", NetChaosSummary(plan), spec.Duration)

	bin := buildContentiond(t)
	factory := ExecFactory(bin)
	daemons := make([]Replica, spec.Links)
	proxies := make([]*chaosProxy, spec.Links)
	for i := range daemons {
		rep, err := factory(100+i, 0)
		if err != nil {
			t.Fatalf("spawn contentiond %d: %v", i, err)
		}
		daemons[i] = rep
		t.Cleanup(rep.Kill)
		p, err := newChaosProxy(rep.Addr())
		if err != nil {
			t.Fatalf("proxy %d: %v", i, err)
		}
		proxies[i] = p
		t.Cleanup(func() { p.Close() })
	}

	tun := defaultTuning()
	tun.perTry = 400 * time.Millisecond
	tun.maxInFlight, tun.maxQueue = 64, 256
	tun.timeout, tun.probe, tun.suspectAfter = 3*time.Second, 25*time.Millisecond, 4
	c, err := newCluster(Config{}, tun)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i, p := range proxies {
		if _, err := c.AddRemote(p.Addr(), 1); err != nil {
			t.Fatalf("AddRemote %d: %v", i, err)
		}
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	}()

	// State watcher: sample member states so the gate can assert the
	// suspect → rejoin lifecycle actually happened.
	var suspectSeen atomic.Bool
	watchStop := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		for {
			select {
			case <-watchStop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			for _, m := range c.Members() {
				if m.State == "suspect" {
					suspectSeen.Store(true)
				}
			}
		}
	}()

	// Load: closed-loop workers over a small key corpus.
	const workers = 12
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
		failures    sync.Map
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
				total.Add(1)
				bucketTotal[bucket].Add(1)
				sent := time.Now()
				resp, err := client.Post(front.URL+"/v1/predict", "application/json",
					strings.NewReader(bodies[(w+i)%len(bodies)]))
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
	applied := map[string]int{}
	for _, e := range plan {
		if d := e.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		p := proxies[e.Target]
		switch e.Kind {
		case NetChaosLatency:
			p.SetLatency(e.Latency)
			time.AfterFunc(e.For, func() { p.SetLatency(0) })
		case NetChaosReset:
			p.Reset()
		case NetChaosStall:
			p.Stall(e.For)
		case NetChaosPartition:
			p.Partition()
		case NetChaosHeal:
			p.Heal()
		}
		applied[e.Kind]++
	}
	wg.Wait()
	t.Logf("applied: %v", applied)
	if applied[NetChaosPartition] == 0 {
		t.Fatal("plan applied no partitions — the gate is not exercising failure detection")
	}

	// Straggler heals land after Duration; make sure every link is open
	// before asserting recovery.
	for _, p := range proxies {
		p.Heal()
		p.SetLatency(0)
	}

	// SLO: ≥99% success across the run.
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

	// Availability never hits zero: partitions are serialized by the
	// plan, so some member is always reachable.
	for i := 0; i < nBuckets; i++ {
		bt, bs := bucketTotal[i].Load(), bucketSucc[i].Load()
		if bt >= 20 && bs == 0 {
			t.Errorf("availability hit zero in bucket %d (%d requests, 0 successes)", i, bt)
		}
	}

	// The probe deadline did its job: partitioned members were marked
	// suspect mid-run, and every member is back after heal.
	close(watchStop)
	watchWG.Wait()
	if !suspectSeen.Load() {
		t.Error("no member was ever marked suspect despite partitions")
	}
	waitFor(t, "all members rejoined after heal", 5*time.Second, func() bool {
		return c.UpCount() == spec.Links
	})
	for _, m := range c.Members() {
		if m.State != "up" {
			t.Errorf("member %d state %q after heal window", m.ID, m.State)
		}
	}

	// Service is still correct after the storm.
	status, out := postPredict(t, front, bodies[0])
	if status != http.StatusOK || out["value"] == nil {
		t.Fatalf("post-chaos predict = %d %v", status, out)
	}
}
