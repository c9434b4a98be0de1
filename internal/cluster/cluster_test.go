package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contention/internal/serve"
)

// fakeReplica is a controllable prediction backend: it answers the
// cluster API with canned bodies and can be flipped into failure or
// stall modes, so router and supervisor behavior is testable without
// the full serve stack (the chaos gate covers that integration).
type fakeReplica struct {
	id, gen int
	ts      *httptest.Server
	host    *hostListener
	hits    atomic.Int64 // /v1/predict requests served
	fail    atomic.Bool  // respond 500 to predicts
	hfail   atomic.Bool  // respond 500 to health probes (no successful probe)
	probes  atomic.Int64 // /healthz requests received
	// hhang and ohang, when set, hold /healthz and /v1/observe until the
	// test closes the channel: a hung member. They must not wait on the
	// request context, which would leave Close waiting on the handler.
	hhang   atomic.Pointer[chan struct{}]
	ohang   atomic.Pointer[chan struct{}]
	stallMS atomic.Int64 // delay predicts by this many ms
	metrics atomic.Value // string: /metrics?format=json body ("" -> 404, like a daemon without -metrics)
	mfail   atomic.Bool  // respond 500 to /metrics
	lastRID atomic.Value // string: X-Request-Id of the last predict served
	done    chan struct{}
	once    sync.Once
}

func newFakeReplica(id, gen int) *fakeReplica {
	f := &fakeReplica{id: id, gen: gen, done: make(chan struct{})}
	mux := http.NewServeMux()
	// Predicts arrive as frames, through the helper serve's own daemon
	// answers GET /v1/frames with; the answer names the replica in its
	// reason.
	answer := serve.AppendBinaryResponse(nil, serve.Response{Value: 1.5, Reason: fmt.Sprintf("replica %d", id)})
	mux.HandleFunc("GET /v1/frames", func(w http.ResponseWriter, r *http.Request) {
		serve.ServeFrames(w, r, func(ctx context.Context, fr *serve.Frame, dst []byte) (int, []byte) {
			if d := f.stallMS.Load(); d > 0 {
				select {
				case <-time.After(time.Duration(d) * time.Millisecond):
				case <-ctx.Done():
					return http.StatusServiceUnavailable, append(dst, `{"error":"gone"}`...)
				}
			}
			f.hits.Add(1)
			f.lastRID.Store(string(fr.RID))
			if f.fail.Load() {
				return http.StatusInternalServerError, append(dst, `{"error":"injected"}`...)
			}
			return http.StatusOK, append(dst, answer...)
		})
	})
	mux.HandleFunc("POST /v1/observe", func(w http.ResponseWriter, r *http.Request) {
		if hang := f.ohang.Load(); hang != nil {
			<-*hang
		}
		fmt.Fprintf(w, `{"drifted":false,"trust":"fresh"}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.probes.Add(1)
		if hang := f.hhang.Load(); hang != nil {
			<-*hang
		}
		if f.hfail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, `{"status":"ok","trust":"fresh"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if f.mfail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		page, _ := f.metrics.Load().(string)
		if page == "" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, page)
	})
	// The host listener tracks the frame connections, which net/http
	// forgets once they are upgraded, so Kill can sever them too.
	f.ts = httptest.NewUnstartedServer(mux)
	f.host = &hostListener{Listener: f.ts.Listener, conns: map[*hostConn]struct{}{}}
	f.ts.Listener = f.host
	f.ts.Start()
	return f
}

func (f *fakeReplica) Addr() string { return strings.TrimPrefix(f.ts.URL, "http://") }

func (f *fakeReplica) Done() <-chan struct{} { return f.done }

func (f *fakeReplica) Close(ctx context.Context) error {
	f.once.Do(func() {
		f.ts.Close()
		close(f.done)
	})
	return nil
}

func (f *fakeReplica) Kill() {
	f.once.Do(func() {
		f.host.sever()
		f.ts.CloseClientConnections()
		f.ts.Close()
		close(f.done)
	})
}

// answeredBy is the id of the fake replica whose answer out is.
func answeredBy(t *testing.T, out map[string]any) int {
	t.Helper()
	var id int
	if reason, _ := out["reason"].(string); reason == "" {
		t.Fatalf("answer %v names no replica", out)
	} else if _, err := fmt.Sscanf(reason, "replica %d", &id); err != nil {
		t.Fatalf("answer %v: %v", out, err)
	}
	return id
}

// fakeFleet tracks every fakeReplica a test factory spawned.
type fakeFleet struct {
	mu     sync.Mutex
	reps   []*fakeReplica // all incarnations, spawn order
	spawns map[int]int    // per-id spawn count
}

func newFakeFleet() *fakeFleet {
	return &fakeFleet{spawns: map[int]int{}}
}

func (fl *fakeFleet) factory(id, gen int) (Replica, error) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	f := newFakeReplica(id, gen)
	fl.reps = append(fl.reps, f)
	fl.spawns[id]++
	return f, nil
}

// current returns the latest incarnation of id.
func (fl *fakeFleet) current(id int) *fakeReplica {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for i := len(fl.reps) - 1; i >= 0; i-- {
		if fl.reps[i].id == id {
			return fl.reps[i]
		}
	}
	return nil
}

func (fl *fakeFleet) closeAll() {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, f := range fl.reps {
		f.Kill()
	}
}

// newTestCluster starts a cluster over a fake fleet with fast,
// test-friendly supervision knobs (override via mutate).
func newTestCluster(t *testing.T, replicas int, mutate func(*Config)) (*Cluster, *fakeFleet, *httptest.Server) {
	t.Helper()
	fl := newFakeFleet()
	cfg := Config{
		Replicas:      replicas,
		Factory:       fl.factory,
		RestartBase:   5 * time.Millisecond,
		RestartMax:    50 * time.Millisecond,
		MinUptime:     time.Millisecond,
		Seed:          1,
		PerTryTimeout: time.Second,
		Timeout:       5 * time.Second,
		ProbeInterval: 25 * time.Millisecond,
		Breaker:       BreakerConfig{Cooldown: 50 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
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
		fl.closeAll()
	})
	return c, fl, front
}

func predictBody(i int) string {
	return fmt.Sprintf(`{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":0.3,"msg_words":%d}]}`, 100+i)
}

func postPredict(t *testing.T, front *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := front.Client().Post(front.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/predict: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.After(timeout)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// nextLead is the id of the member the next predict tries first.
func nextLead(c *Cluster) int {
	set := *c.set.Load()
	return set[lead(set, c.turn.Load()+1)].id
}

// TestClusterSpreadsEqualKeys: concurrent traffic that repeats one
// contender mix reaches both replicas of a 2-replica fleet, each taking
// at least a quarter of it — the router balances load, not keys.
func TestClusterSpreadsEqualKeys(t *testing.T) {
	_, fl, front := newTestCluster(t, 2, nil)
	for id := 0; id < 2; id++ {
		fl.current(id).stallMS.Store(5) // keep requests in flight together
	}
	const workers, each = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := front.Client().Post(front.URL+"/v1/predict", "application/json", strings.NewReader(predictBody(0)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	for id := 0; id < 2; id++ {
		if n := fl.current(id).hits.Load(); n < workers*each/4 {
			t.Errorf("replica %d served %d of %d equal-key requests, want ≥ %d", id, n, workers*each, workers*each/4)
		}
	}
}

// TestPick: the lead is the member with the fewest requests in flight
// per unit of weight; open and degraded members lead only when no other
// member can; weight 0 never leads; equal loads take turns.
func TestPick(t *testing.T) {
	type mem struct {
		inflight int64
		weight   float64
		open     bool
		degraded bool
	}
	for _, tc := range []struct {
		name string
		set  []mem
		turn uint64
		want int // index in set; -1 for none
	}{
		{"least loaded leads", []mem{{3, 1, false, false}, {1, 1, false, false}, {2, 1, false, false}}, 0, 1},
		{"least loaded leads whatever the turn", []mem{{3, 1, false, false}, {1, 1, false, false}, {2, 1, false, false}}, 2, 1},
		{"load is per unit of weight", []mem{{4, 2, false, false}, {3, 1, false, false}}, 1, 0},
		{"heavier member holds more before it yields", []mem{{5, 2, false, false}, {2, 1, false, false}}, 0, 1},
		{"open breaker yields", []mem{{0, 1, true, false}, {5, 1, false, false}}, 0, 1},
		{"degraded member yields", []mem{{0, 1, false, true}, {5, 1, false, false}}, 0, 1},
		{"open and degraded lead when nothing else can", []mem{{3, 1, true, false}, {1, 1, false, true}, {2, 1, true, false}}, 0, 1},
		{"weight 0 never leads", []mem{{0, 0, false, false}, {7, 1, false, false}}, 0, 1},
		{"weight 0 never leads, even as the fallback", []mem{{0, 0, false, false}, {7, 1, true, false}}, 0, 1},
		{"ties rotate: turn 0", []mem{{1, 1, false, false}, {1, 1, false, false}, {1, 1, false, false}}, 0, 0},
		{"ties rotate: turn 1", []mem{{1, 1, false, false}, {1, 1, false, false}, {1, 1, false, false}}, 1, 1},
		{"ties rotate: turn 5", []mem{{1, 1, false, false}, {1, 1, false, false}, {1, 1, false, false}}, 5, 2},
		{"ties rotate past a busier member", []mem{{1, 1, false, false}, {4, 1, false, false}, {1, 1, false, false}}, 1, 2},
		{"ties rotate when nothing qualifies", []mem{{1, 1, true, false}, {1, 1, true, false}}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := make([]*member, len(tc.set))
			for i, mm := range tc.set {
				m := &member{id: i, breaker: NewBreaker(BreakerConfig{MinVolume: 1, Cooldown: time.Hour})}
				m.inflight.Store(mm.inflight)
				m.setWeight(mm.weight)
				m.degraded.Store(mm.degraded)
				if mm.open {
					m.breaker.Record(false)
				}
				set[i] = m
			}
			if got := lead(set, tc.turn); got != tc.want {
				t.Fatalf("lead = %d, want %d", got, tc.want)
			}
		})
	}
}

// routingSet builds a routing set of idle members, ids 0..n-1, with
// closed breakers and the given weights.
func routingSet(weights ...float64) []*member {
	set := make([]*member, len(weights))
	for i, w := range weights {
		set[i] = &member{id: i, breaker: NewBreaker(BreakerConfig{})}
		set[i].setWeight(w)
	}
	return set
}

// TestRingEdgeCases: the routing set at its edges — empty, all weight
// 0, one member even when it is open and degraded, and emptied by
// Shutdown.
func TestRingEdgeCases(t *testing.T) {
	if got := lead(nil, 0); got != -1 {
		t.Fatalf("empty set: lead = %d, want -1", got)
	}
	if got := lead(routingSet(0, 0), 0); got != -1 {
		t.Fatalf("all weight 0: lead = %d, want -1", got)
	}
	one := routingSet(1)
	for turn := uint64(0); turn < 3; turn++ {
		if got := lead(one, turn); got != 0 {
			t.Fatalf("one member, turn %d: lead = %d, want 0", turn, got)
		}
	}
	one[0].breaker = NewBreaker(BreakerConfig{MinVolume: 1, Cooldown: time.Hour})
	one[0].breaker.Record(false)
	one[0].degraded.Store(true)
	if got := lead(one, 0); got != 0 {
		t.Fatalf("one open, degraded member: lead = %d, want 0 (nothing else can)", got)
	}

	c, _, front := newTestCluster(t, 2, nil)
	for id := 0; id < 2; id++ {
		if err := c.ReweightMember(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if code, out := postPredict(t, front, predictBody(0)); code != http.StatusServiceUnavailable {
		t.Fatalf("predict with every member at weight 0 = %d (%v), want 503", code, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.UpCount(); got != 0 {
		t.Fatalf("UpCount after Shutdown = %d, want 0", got)
	}
}

// TestRingSequence: a predict walks the routing set as a ring — the
// lead, then the members after it in id order, wrapping — each member
// at most once, stopping after MaxTries tries or one lap, whichever
// comes first.
func TestRingSequence(t *testing.T) {
	for _, tc := range []struct {
		replicas, maxTries, want int
	}{
		{4, 3, 3},  // MaxTries ends the walk
		{3, 10, 3}, // one lap ends it
	} {
		c, fl, front := newTestCluster(t, tc.replicas, func(cfg *Config) {
			cfg.MaxTries = tc.maxTries
			cfg.Breaker = BreakerConfig{MinVolume: 100, Cooldown: time.Hour}
		})
		for id := 0; id < tc.replicas; id++ {
			fl.current(id).fail.Store(true)
		}
		first := nextLead(c)
		if code, _ := postPredict(t, front, predictBody(0)); code != http.StatusInternalServerError {
			t.Fatalf("%d replicas, MaxTries %d: predict with every member failing = %d, want the last 500",
				tc.replicas, tc.maxTries, code)
		}
		for k := 0; k < tc.replicas; k++ {
			id := (first + k) % tc.replicas
			want := int64(0)
			if k < tc.want {
				want = 1
			}
			if got := fl.current(id).hits.Load(); got != want {
				t.Errorf("%d replicas, MaxTries %d, lead %d: member %d (%d after the lead) served %d tries, want %d",
					tc.replicas, tc.maxTries, first, id, k, got, want)
			}
		}
	}
}

// TestRingWeightedOwnership: weight is a capacity share — requests
// held in flight spread over the members in proportion to their
// weights, within two requests each, and weight 0 holds none.
func TestRingWeightedOwnership(t *testing.T) {
	for _, weights := range [][]float64{
		{1, 2},
		{1, 1, 2},
		{1, 2, 4},
		{0.5, 1, 1, 2},
		{0, 1, 2},
	} {
		set := routingSet(weights...)
		total := 0.0
		for _, w := range weights {
			total += w
		}
		n := int(40 * total)
		for turn := 0; turn < n; turn++ {
			set[lead(set, uint64(turn))].inflight.Add(1)
		}
		for id, w := range weights {
			fair := float64(n) * w / total
			if got := float64(set[id].inflight.Load()); math.Abs(got-fair) > 2 {
				t.Errorf("weights %v: member %d holds %.0f of %d requests, weighted fair share %.1f", weights, id, got, n, fair)
			}
		}
	}
}

// TestZeroWeightTakesNoPredicts: a member reweighted to 0 stays up and
// counted, but no predict reaches it — not as the lead, not as the
// failover after its peer fails, not as the hedge after its peer
// stalls.
func TestZeroWeightTakesNoPredicts(t *testing.T) {
	c, fl, front := newTestCluster(t, 2, func(cfg *Config) {
		cfg.HedgeDelay = 5 * time.Millisecond
		cfg.Breaker = BreakerConfig{MinVolume: 100, Cooldown: time.Hour}
	})
	if err := c.ReweightMember(1, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if code, _ := postPredict(t, front, predictBody(i)); code != http.StatusOK {
			t.Fatalf("predict %d = %d", i, code)
		}
	}
	fl.current(0).stallMS.Store(20)
	fl.current(0).fail.Store(true)
	for i := 0; i < 4; i++ {
		if code, _ := postPredict(t, front, predictBody(i)); code != http.StatusInternalServerError {
			t.Fatalf("predict %d with the only weighted member failing = %d, want its 500", i, code)
		}
	}
	if n := fl.current(1).hits.Load(); n != 0 {
		t.Fatalf("weight-0 member served %d predicts", n)
	}
	if got := c.UpCount(); got != 2 {
		t.Fatalf("UpCount = %d, want 2 (weight 0 is still up)", got)
	}
}

func TestClusterBadRequestPassesThroughWithoutRouting(t *testing.T) {
	_, fl, front := newTestCluster(t, 2, nil)
	code, out := postPredict(t, front, `{"kind":"nonsense"}`)
	if code != http.StatusBadRequest && code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid request = %d (%v), want 400/422", code, out)
	}
	for id := 0; id < 2; id++ {
		if n := fl.current(id).hits.Load(); n != 0 {
			t.Fatalf("invalid request reached replica %d (%d hits)", id, n)
		}
	}
}

func TestClusterFailoverAndRejoin(t *testing.T) {
	c, fl, front := newTestCluster(t, 3, nil)
	body := predictBody(0)
	if code, _ := postPredict(t, front, body); code != http.StatusOK {
		t.Fatal("warmup predict failed")
	}
	primary := nextLead(c)
	fl.current(primary).Kill()
	// Service continues through failover while the primary is down.
	for i := 0; i < 10; i++ {
		if code, out := postPredict(t, front, body); code != http.StatusOK {
			t.Fatalf("predict during failover = %d (%v)", code, out)
		}
	}
	// The supervisor respawns the dead member and it rejoins the set.
	waitFor(t, "crashed replica rejoin", 5*time.Second, func() bool {
		return c.UpCount() == 3
	})
	fl.mu.Lock()
	spawns := fl.spawns[primary]
	fl.mu.Unlock()
	if spawns < 2 {
		t.Fatalf("primary %d spawned %d times, want ≥ 2 (restart)", primary, spawns)
	}
	if code, _ := postPredict(t, front, body); code != http.StatusOK {
		t.Fatal("predict after rejoin failed")
	}
}

func TestClusterRetriesUpstreamFailure(t *testing.T) {
	c, fl, front := newTestCluster(t, 3, nil)
	body := predictBody(3)
	if code, _ := postPredict(t, front, body); code != http.StatusOK {
		t.Fatal("warmup predict failed")
	}
	primary := nextLead(c)
	fl.current(primary).fail.Store(true)
	code, out := postPredict(t, front, body)
	if code != http.StatusOK {
		t.Fatalf("predict with failing primary = %d (%v), want 200 via failover", code, out)
	}
	if got := answeredBy(t, out); got == primary {
		t.Fatalf("answer came from the failing primary %d", got)
	}
}

func TestClusterCrashLoopBudget(t *testing.T) {
	var allow atomic.Bool
	allow.Store(true)
	fl := newFakeFleet()
	cfg := Config{
		Replicas: 2,
		Factory: func(id, gen int) (Replica, error) {
			if id == 1 && !allow.Load() {
				return nil, fmt.Errorf("injected spawn failure")
			}
			return fl.factory(id, gen)
		},
		RestartBase:     time.Millisecond,
		RestartMax:      5 * time.Millisecond,
		MinUptime:       10 * time.Second, // every death is a strike
		CrashLoopBudget: 3,
		Seed:            1,
		PerTryTimeout:   time.Second,
		ProbeInterval:   25 * time.Millisecond,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	front := httptest.NewServer(c.Handler())
	defer func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
		fl.closeAll()
	}()

	allow.Store(false)
	fl.current(1).Kill()
	waitFor(t, "member 1 abandoned", 5*time.Second, func() bool {
		return c.Members()[1].State == "failed"
	})
	if got := c.UpCount(); got != 1 {
		t.Fatalf("UpCount = %d after abandonment, want 1", got)
	}
	// The surviving replica keeps serving every request.
	for i := 0; i < 10; i++ {
		if code, _ := postPredict(t, front, predictBody(i)); code != http.StatusOK {
			t.Fatalf("predict %d failed after abandonment", i)
		}
	}
}

func TestClusterHedgingBeatsStalledPrimary(t *testing.T) {
	c, fl, front := newTestCluster(t, 3, func(cfg *Config) {
		cfg.HedgeDelay = 20 * time.Millisecond
	})
	body := predictBody(5)
	if code, _ := postPredict(t, front, body); code != http.StatusOK {
		t.Fatal("warmup predict failed")
	}
	primary := nextLead(c)
	fl.current(primary).stallMS.Store(1500)

	start := time.Now()
	code, out := postPredict(t, front, body)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("hedged predict = %d (%v)", code, out)
	}
	if got := answeredBy(t, out); got == primary {
		t.Fatalf("answer came from the stalled primary %d", got)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged predict took %v — rode out the full stall instead of hedging", elapsed)
	}
}

// TestClusterClientGoneForgiven: a client that cancels mid-request
// produces a typed ErrClientGone outcome and leaves the replica's
// breaker untouched — misbehaving clients must not be able to trip
// breakers and evict healthy replicas.
func TestClusterClientGoneForgiven(t *testing.T) {
	c, fl, front := newTestCluster(t, 1, func(cfg *Config) {
		cfg.ProbeInterval = time.Hour // only request outcomes feed the breaker
		cfg.Breaker = BreakerConfig{MinVolume: 2, TripRate: 0.01, Cooldown: time.Hour}
	})
	fl.current(0).stallMS.Store(200)

	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			front.URL+"/v1/predict", strings.NewReader(predictBody(i)))
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := front.Client().Do(req)
			errc <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the request reach the replica
		cancel()
		if err := <-errc; err == nil {
			t.Fatal("canceled request returned a response")
		}
	}

	m := c.memberByID(0)
	if vol, _ := m.breaker.Stats(); vol != 0 {
		t.Fatalf("breaker volume %d after client cancels, want 0 (forgiven)", vol)
	}
	if got := m.breaker.State(); got != Closed {
		t.Fatalf("breaker state %v after client cancels, want closed", got)
	}
	// The replica is still routable for a patient client.
	fl.current(0).stallMS.Store(0)
	if status, _ := postPredict(t, front, predictBody(99)); status != 200 {
		t.Fatalf("post-cancel predict status %d", status)
	}
}

func TestClusterDrainMember(t *testing.T) {
	c, fl, front := newTestCluster(t, 3, nil)
	body := predictBody(7)
	if code, _ := postPredict(t, front, body); code != http.StatusOK {
		t.Fatal("warmup predict failed")
	}
	primary := nextLead(c)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.DrainMember(ctx, primary); err != nil {
		t.Fatalf("DrainMember: %v", err)
	}
	if got := c.UpCount(); got != 2 {
		t.Fatalf("UpCount = %d after drain, want 2", got)
	}
	if got := c.Members()[primary].State; got != "draining" {
		t.Fatalf("drained member state %q", got)
	}
	before := fl.current(primary).hits.Load()
	for i := 0; i < 10; i++ {
		if code, _ := postPredict(t, front, body); code != http.StatusOK {
			t.Fatalf("predict after drain failed")
		}
	}
	if got := fl.current(primary).hits.Load(); got != before {
		t.Fatalf("drained member took %d new requests", got-before)
	}
	// Drained members stay out: the supervisor must not respawn them.
	time.Sleep(100 * time.Millisecond)
	fl.mu.Lock()
	spawns := fl.spawns[primary]
	fl.mu.Unlock()
	if spawns != 1 {
		t.Fatalf("drained member respawned (%d spawns)", spawns)
	}
	if err := c.DrainMember(ctx, primary); err == nil {
		t.Fatal("draining an already-drained member succeeded")
	}
}

func TestClusterShutdown(t *testing.T) {
	fl := newFakeFleet()
	c, err := New(Config{
		Replicas:      2,
		Factory:       fl.factory,
		Seed:          1,
		PerTryTimeout: time.Second,
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	defer fl.closeAll()

	if code, _ := postPredict(t, front, predictBody(0)); code != http.StatusOK {
		t.Fatal("predict before shutdown failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Every replica is closed.
	for id := 0; id < 2; id++ {
		select {
		case <-fl.current(id).Done():
		default:
			t.Fatalf("replica %d still running after Shutdown", id)
		}
	}
	// New work is refused with a back-off hint.
	resp, err := front.Client().Post(front.URL+"/v1/predict", "application/json", strings.NewReader(predictBody(0)))
	if err != nil {
		t.Fatalf("POST after shutdown: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict after shutdown = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("post-shutdown 503 carries no Retry-After")
	}
	// Idempotent.
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestClusterHealthAndReady(t *testing.T) {
	c, fl, front := newTestCluster(t, 2, nil)
	get := func(path string) (int, map[string]any) {
		resp, err := front.Client().Get(front.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	code, h := get("/healthz")
	if code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("/healthz = %d %v", code, h)
	}
	if code, r := get("/readyz"); code != http.StatusOK || r["ready"] != true {
		t.Fatalf("/readyz = %d %v", code, r)
	}

	fl.current(0).Kill()
	waitFor(t, "health degraded", 2*time.Second, func() bool {
		_, h := get("/healthz")
		return h["status"] == "degraded" || h["status"] == "ok" && c.UpCount() == 2
	})
}

// TestHungMemberDelaysNoOtherProbe: every member is probed on its own
// goroutine, so peers hung on /healthz cost a healthy member none of its
// probes. With 3 of 4 members hung and a 20 ms period, a serial prober
// reaches the healthy one about 19 times a second; the period allows 50.
func TestHungMemberDelaysNoOtherProbe(t *testing.T) {
	_, fl, _ := newTestCluster(t, 4, func(cfg *Config) { cfg.ProbeInterval = 20 * time.Millisecond })
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	for id := 1; id < 4; id++ {
		fl.current(id).hhang.Store(&release)
	}
	healthy := fl.current(0)
	before := healthy.probes.Load()
	time.Sleep(time.Second)
	got := healthy.probes.Load() - before
	if got < 30 {
		t.Fatalf("healthy member got %d probes in 1s with 3 peers hung, want >= 30", got)
	}
	t.Logf("healthy member: %d probes in 1s with 3 peers hung", got)
}

func TestClusterStartFailureTearsDown(t *testing.T) {
	fl := newFakeFleet()
	c, err := New(Config{
		Replicas: 3,
		Factory: func(id, gen int) (Replica, error) {
			if id == 2 {
				return nil, fmt.Errorf("injected")
			}
			return fl.factory(id, gen)
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("Start succeeded with a failing factory")
	}
	for _, f := range fl.reps {
		select {
		case <-f.Done():
		default:
			t.Fatalf("replica %d left running after failed Start", f.id)
		}
	}
}

// TestClusterObserveBroadcast: an observation reaches every member, and
// the posts go out at once, so two hung members cost the broadcast one
// PerTryTimeout, not two.
func TestClusterObserveBroadcast(t *testing.T) {
	_, fl, front := newTestCluster(t, 3, func(cfg *Config) { cfg.PerTryTimeout = 200 * time.Millisecond })
	observe := func() (int, observeResult) {
		t.Helper()
		resp, err := front.Client().Post(front.URL+"/v1/observe", "application/json",
			strings.NewReader(`{"predicted":1.2,"observed":1.3}`))
		if err != nil {
			t.Fatalf("POST /v1/observe: %v", err)
		}
		defer resp.Body.Close()
		var out observeResult
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp.StatusCode, out
	}
	if status, out := observe(); status != http.StatusOK || out.Forwarded != 3 {
		t.Fatalf("observe broadcast = %d, forwarded %d of 3", status, out.Forwarded)
	}

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	fl.current(1).ohang.Store(&release)
	fl.current(2).ohang.Store(&release)
	start := time.Now()
	status, out := observe()
	if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
		t.Fatalf("broadcast with 2 hung members took %v, want < 300ms", elapsed)
	}
	if status != http.StatusOK || out.Forwarded != 1 || out.Errors != 2 {
		t.Fatalf("broadcast with 2 hung members = %d %+v, want 200 forwarded 1 errors 2", status, out)
	}
}

// TestClusterObserveRefusalPassesThrough: an observation every replica
// refuses as the client's fault comes back with the replicas' own status
// and error envelope, not as a 503 telling the client to retry a
// request that can never succeed. A valid one still reaches them all.
func TestClusterObserveRefusalPassesThrough(t *testing.T) {
	c, err := New(Config{Replicas: 2, Factory: InProcessFactory(InProcConfig{}), ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	post := func(url, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := front.Client().Post(url+"/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s/v1/observe: %v", url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	const bad = `{"predicted":"x"}`
	direct, want := post("http://"+c.Replica(0).Addr(), bad)
	if direct.StatusCode != http.StatusBadRequest {
		t.Fatalf("a replica answers %q with %d, want 400", bad, direct.StatusCode)
	}
	resp, got := post(front.URL, bad)
	if resp.StatusCode != direct.StatusCode || !bytes.Equal(got, want) {
		t.Fatalf("router answers %q with %d %q, want the replicas' %d %q", bad, resp.StatusCode, got, direct.StatusCode, want)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("refused observation carries Retry-After %q", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("refused observation Content-Type %q", ct)
	}

	resp, got = post(front.URL, `{"predicted":1.2,"observed":1.3}`)
	var out observeResult
	if err := json.Unmarshal(got, &out); err != nil || resp.StatusCode != http.StatusOK || out.Forwarded != 2 {
		t.Fatalf("valid observation = %d %q, want 200 forwarded 2", resp.StatusCode, got)
	}
}
