package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMembers(t *testing.T) {
	specs, err := ParseMembers([]byte(`{"members":[
		{"addr":"10.0.0.5:8080","weight":2},
		{"addr":"10.0.0.6:8080"}]}`))
	if err != nil {
		t.Fatalf("ParseMembers: %v", err)
	}
	if len(specs) != 2 || specs[0].Weight != 2 || specs[1].Weight != 1 {
		t.Fatalf("specs = %+v, want weights 2 and 1", specs)
	}
	for _, bad := range []string{
		`{"members":[{"addr":"10.0.0.5:8080"},{"addr":"10.0.0.5:8080"}]}`, // duplicate
		`{"members":[{"addr":"10.0.0.5"}]}`,                               // no port
		`{"members":[{"addr":":8080"}]}`,                                  // no host
		`{"members":[{"addr":"10.0.0.5:0"}]}`,                             // port 0
		`{"members":[{"addr":"10.0.0.5:8080","weight":-1}]}`,              // negative weight
		`{"members":[{"addr":"10.0.0.5:8080","wieght":2}]}`,               // typo'd field
	} {
		if _, err := ParseMembers([]byte(bad)); err == nil {
			t.Errorf("ParseMembers(%s) accepted", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{Replicas: 1}); err == nil {
		t.Error("local replicas without a Factory accepted")
	}
	if _, err := New(Config{Replicas: -1}); err == nil {
		t.Error("negative Replicas accepted")
	}
	// Remote-only: no Factory needed.
	if _, err := New(Config{}); err != nil {
		t.Fatalf("remote-only New: %v", err)
	}
}

// remoteFleet spawns fake daemons the cluster does not own — stand-ins
// for contentiond processes on other hosts.
type remoteFleet struct {
	t    *testing.T
	reps []*fakeReplica
}

func newRemoteFleet(t *testing.T, n int) *remoteFleet {
	t.Helper()
	rf := &remoteFleet{t: t}
	for i := 0; i < n; i++ {
		rf.reps = append(rf.reps, newFakeReplica(100+i, 0))
	}
	t.Cleanup(func() {
		for _, r := range rf.reps {
			r.Kill()
		}
	})
	return rf
}

func (rf *remoteFleet) membersJSON(weights ...float64) string {
	s := `{"members":[`
	for i, r := range rf.reps {
		if i >= len(weights) {
			break
		}
		if weights[i] < 0 {
			continue // negative sentinel: omit this member
		}
		if !stringsHasSuffix(s, "[") {
			s += ","
		}
		s += fmt.Sprintf(`{"addr":%q,"weight":%g}`, r.Addr(), weights[i])
	}
	return s + `]}`
}

func stringsHasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// newRemoteCluster starts a remote-only cluster (no local fleet).
func newRemoteCluster(t *testing.T, mutate func(*testConfig)) (*Cluster, *httptest.Server) {
	t.Helper()
	cfg := testConfig{tuning: defaultTuning()}
	cfg.timeout, cfg.perTry, cfg.probe = 5*time.Second, time.Second, 10*time.Millisecond
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := newCluster(cfg.Config, cfg.tuning)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	front := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c, front
}

func TestAddRemoteRoutesAndRejectsDuplicates(t *testing.T) {
	rf := newRemoteFleet(t, 2)
	c, front := newRemoteCluster(t, nil)
	for _, r := range rf.reps {
		if _, err := c.AddRemote(r.Addr(), 1); err != nil {
			t.Fatalf("AddRemote(%s): %v", r.Addr(), err)
		}
	}
	if _, err := c.AddRemote(rf.reps[0].Addr(), 1); err == nil {
		t.Fatal("duplicate AddRemote accepted")
	}
	if _, err := c.AddRemote("nonsense", 1); err == nil {
		t.Fatal("malformed addr accepted")
	}
	if got := c.UpCount(); got != 2 {
		t.Fatalf("UpCount = %d, want 2", got)
	}
	for i := 0; i < 20; i++ {
		status, _ := postPredict(t, front, predictBody(i))
		if status != 200 {
			t.Fatalf("predict %d: status %d", i, status)
		}
	}
	if rf.reps[0].hits.Load()+rf.reps[1].hits.Load() < 20 {
		t.Fatal("remote replicas did not serve the traffic")
	}
}

// TestRemoteSuspectAndRejoin walks the probe deadline on virtual time: a
// member whose probes fail is suspect at the first round that finds its
// silence past suspectAfter intervals, and the first probe that succeeds
// again readmits it.
func TestRemoteSuspectAndRejoin(t *testing.T) {
	rf := newRemoteFleet(t, 2)
	clk := newFakeClock()
	c, front := newRemoteCluster(t, func(cfg *testConfig) { cfg.clock = clk })
	for _, r := range rf.reps {
		if _, err := c.AddRemote(r.Addr(), 1); err != nil {
			t.Fatalf("AddRemote: %v", err)
		}
	}
	if got := c.UpCount(); got != 2 {
		t.Fatalf("UpCount = %d after joining both remotes, want 2", got)
	}
	interval, after := c.tun.probe, c.tun.suspectAfter
	rounds := 0
	clk.waitArmed(func(*fakeTimer) bool { return true }) // the health loop is waiting
	round := func() {
		t.Helper()
		clk.advance(interval)
		rounds++
		// The round is over once the loop has re-armed and both probes
		// have ended.
		clk.waitArmed(func(t *fakeTimer) bool {
			return t.arms == rounds+1 && !c.memberByID(0).probing.Load() && !c.memberByID(1).probing.Load()
		})
	}

	// Fail member 0's probes: once its silence passes suspectAfter
	// intervals it must be suspect and out of the routing set.
	rf.reps[0].hfail.Store(true)
	for rounds < int(after) {
		round()
		if ms := c.Members(); ms[0].State != "up" || c.UpCount() != 2 {
			t.Fatalf("round %d: member 0 %s, UpCount %d: suspect within %g intervals of silence",
				rounds, ms[0].State, c.UpCount(), after)
		}
	}
	round()
	if ms := c.Members(); ms[0].State != "suspect" || c.UpCount() != 1 {
		t.Fatalf("round %d: member 0 %s, UpCount %d, want suspect and 1", rounds, ms[0].State, c.UpCount())
	}
	// Traffic keeps flowing on the survivor.
	for i := 0; i < 10; i++ {
		if status, _ := postPredict(t, front, predictBody(i)); status != 200 {
			t.Fatalf("predict during suspicion: status %d", status)
		}
	}
	// Heal: the next successful probe readmits it.
	rf.reps[0].hfail.Store(false)
	round()
	if ms := c.Members(); ms[0].State != "up" || c.UpCount() != 2 {
		t.Fatalf("member 0 %s, UpCount %d one round after healing, want up and 2", ms[0].State, c.UpCount())
	}
}

func TestMembershipReloadUnderLoad(t *testing.T) {
	rf := newRemoteFleet(t, 3)
	// Detection is off-topic here: the test asserts zero failed
	// requests across reloads, and a scheduling hiccup on a loaded CI
	// box must not fake a suspect (empty-set 503s).
	c, front := newRemoteCluster(t, func(cfg *testConfig) { cfg.suspectAfter = 1e9 })

	dir := t.TempDir()
	path := filepath.Join(dir, "members.json")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(rf.membersJSON(1, 1))

	ms, err := NewMembership(c, MembershipConfig{Path: path})
	if err != nil {
		t.Fatalf("NewMembership: %v", err)
	}
	sum, err := ms.Reload()
	if err != nil || sum.Added != 2 {
		t.Fatalf("initial reload: %+v, %v (want 2 added)", sum, err)
	}
	if got := c.UpCount(); got != 2 {
		t.Fatalf("UpCount = %d after initial reload, want 2", got)
	}

	// Continuous load through every membership change; any non-200 is a
	// lost request.
	var failures atomic.Int64
	var reqs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				status, _ := postPredict(t, front, predictBody(w*1000+i))
				reqs.Add(1)
				if status != 200 {
					failures.Add(1)
				}
			}
		}(w)
	}

	// Add the third member and reweight the first.
	write(rf.membersJSON(2, 1, 1))
	sum, err = ms.Reload()
	if err != nil || sum.Added != 1 || sum.Reweighted != 1 {
		t.Fatalf("reload add+reweight: %+v, %v", sum, err)
	}
	waitFor(t, "three members up", 2*time.Second, func() bool { return c.UpCount() == 3 })
	time.Sleep(50 * time.Millisecond)

	// Remove the second member: graceful drain, zero lost requests.
	write(rf.membersJSON(2, -1, 1))
	sum, err = ms.Reload()
	if err != nil || sum.Removed != 1 {
		t.Fatalf("reload remove: %+v, %v", sum, err)
	}
	waitFor(t, "member drained", 2*time.Second, func() bool { return c.UpCount() == 2 })
	time.Sleep(50 * time.Millisecond)

	close(stop)
	wg.Wait()
	ms.drains.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed across membership changes", failures.Load(), reqs.Load())
	}
	if reqs.Load() == 0 {
		t.Fatal("load generator sent nothing")
	}
	// Idempotence: a reload with no changes reports none.
	sum, err = ms.Reload()
	if err != nil || sum != (ReloadSummary{}) {
		t.Fatalf("no-op reload reported %+v, %v", sum, err)
	}
	// The drained member's status reflects the removal, and it reports
	// no suspicion: it is no longer probed, so its silence means nothing.
	states := map[string]int{}
	for _, m := range c.Members() {
		states[m.State]++
		if m.State == "draining" && m.Suspicion != 0 {
			t.Errorf("drained member %d reports suspicion %g", m.ID, m.Suspicion)
		}
	}
	if states["up"] != 2 {
		t.Fatalf("member states %v, want 2 up", states)
	}
}

func TestMembershipFetchErrorKeepsFleet(t *testing.T) {
	rf := newRemoteFleet(t, 1)
	c, _ := newRemoteCluster(t, nil)
	if _, err := c.AddRemote(rf.reps[0].Addr(), 1); err != nil {
		t.Fatal(err)
	}
	ms, err := NewMembership(c, MembershipConfig{Path: filepath.Join(t.TempDir(), "missing.json")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Reload(); err == nil {
		t.Fatal("reload of a missing file succeeded")
	}
	if got := c.UpCount(); got != 1 {
		t.Fatalf("UpCount = %d after failed reload, want 1 (fleet must survive)", got)
	}
}
