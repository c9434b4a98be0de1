// Package cluster is the self-healing serving fleet: a supervisor that
// spawns and babysits N prediction replicas, and a router in front of
// them.
//
// The router sends each predict to the least-loaded member: the one
// with the fewest requests in flight per unit of weight, among members
// whose breaker is not open and that are not serving degraded answers.
// In-flight requests are the contenders a replica's answer waits
// behind, so they are what the router balances. A weight is a capacity
// share — a member of weight 2 leads until it holds twice the in-flight
// requests of a member of weight 1 — and weight 0 takes no predicts.
// Equally loaded members take turns.
//
// Around the pick sit the production concerns: per-replica circuit
// breakers over a rolling error rate, bounded retries under a
// cluster-wide retry budget, optional hedged second requests for
// tail-latency protection, supervised restart with seeded exponential
// backoff and a crash-loop budget, and graceful draining on shutdown or
// replica removal.
package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"contention/internal/obs"
	"contention/internal/rm"
	"contention/internal/serve"
)

// ErrNoReplica is returned (as a 503 with Retry-After) when no healthy
// replica can take a request.
var ErrNoReplica = errors.New("cluster: no replica available")

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxTries      = 3
	DefaultRetryBudget   = 0.2
	DefaultProbeInterval = 250 * time.Millisecond
	DefaultSuspectAfter  = 4.0
)

// retryTokenCap bounds banked retry credit (milli-tokens): bursts of
// failures may spend at most this many stored retries before new
// traffic must earn more.
const retryTokenCap = 20_000

// Config parameterizes a Cluster.
type Config struct {
	// Replicas is the supervised fleet size. Required.
	Replicas int
	// Factory builds each replica incarnation. Required.
	Factory Factory

	// MaxTries bounds attempts per request (first try + failovers).
	MaxTries int
	// RetryBudget is the cluster-wide retry allowance as a fraction of
	// routed requests (token bucket): retries beyond it are shed so a
	// sick fleet is not finished off by its own retry storm.
	RetryBudget float64
	// HedgeDelay, when positive, launches a hedged second request to the
	// next member if the lead has not answered within it (p99
	// protection); first answer wins.
	HedgeDelay time.Duration
	// Timeout bounds the request; each attempt is also bounded by the
	// 500 ms per-try timeout.
	Timeout time.Duration
	// ProbeInterval is the health loop's period: each period every up
	// or suspect member gets one /healthz probe, and a probe may take at
	// most one period.
	ProbeInterval time.Duration
	// SuspectAfter is the suspicion deadline in probe intervals: a
	// remote member whose last successful probe is more than
	// SuspectAfter × ProbeInterval old leaves the routing set until a
	// probe succeeds again. Zero selects DefaultSuspectAfter; explicit
	// values below 1 are a validation error (they would suspect members
	// faster than one probe interval).
	SuspectAfter float64
	// Sampler is the head-sampling knob for request tracing: requests
	// arriving without a trace header consult it once, and the verdict
	// rides each forwarded record's trace block to the replicas. Nil never
	// samples.
	Sampler *obs.Sampler
	// SLO, when set, receives every front-door request outcome for
	// burn-rate tracking (client faults excluded).
	SLO *obs.SLOTracker
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxTries <= 0 {
		cfg.MaxTries = DefaultMaxTries
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = serve.DefaultTimeout
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	return cfg
}

// Supervision: a crashed replica is respawned after
// restartBase·2^strikes (capped at restartMax) plus seeded jitter,
// where strikes counts consecutive lives shorter than minUptime. A
// member that accumulates crashLoopBudget strikes is abandoned — its
// traffic stays with the survivors instead of flapping forever. The
// jitter's RNG is seeded with restartSeed.
const (
	restartBase     = 100 * time.Millisecond
	restartMax      = 5 * time.Second
	minUptime       = 2 * time.Second
	crashLoopBudget = 6
	restartSeed     = 1
)

// tuning holds the settings a Cluster runs with that no command sets.
// New runs with defaultTuning; the package's tests pass others to
// newCluster.
type tuning struct {
	// perTry bounds each attempt, Config.Timeout the request. It times
	// the attempt's wait on the clock and the deadlines of the frame
	// connection it is written on, a real one: tests with members that
	// hang on that connection shorten it.
	perTry time.Duration
	// Front-door admission bounds (same semantics as serve.Config).
	maxInFlight, maxQueue int
	// breaker is every member's circuit-breaker tuning.
	breaker breakerTuning
	// clock times every wait of the router, the health loop and the
	// supervisor, and is the now the breakers and the SLO tracker read.
	clock obs.Clock
}

// defaultTuning is the tuning every command runs with.
func defaultTuning() tuning {
	return tuning{
		perTry:      500 * time.Millisecond,
		maxInFlight: serve.DefaultMaxInFlight,
		maxQueue:    serve.DefaultMaxQueue,
		breaker:     breakerTuning{minVolume: 10, tripRate: 0.5},
		clock:       obs.WallClock(),
	}
}

// validate rejects default-filled configurations that could not work.
func (cfg Config) validate() error {
	if cfg.SuspectAfter < 1 {
		return fmt.Errorf("cluster: SuspectAfter %g would suspect members faster than one probe interval (want >= 1)",
			cfg.SuspectAfter)
	}
	return nil
}

// memberState is one member's supervision state.
type memberState int32

const (
	stateUp memberState = iota
	stateDown
	stateFailed
	stateDraining
	stateSuspect
)

func (s memberState) String() string {
	switch s {
	case stateUp:
		return "up"
	case stateDown:
		return "down"
	case stateFailed:
		return "failed"
	case stateDraining:
		return "draining"
	case stateSuspect:
		return "suspect"
	}
	return "unknown"
}

// member is one supervised replica slot: the slot (id, breaker,
// supervision history) is permanent, the Replica incarnation behind it
// comes and goes. Every slot is probed by the health loop. Local slots
// are babysat (crash → respawn); remote slots are judged by their probe
// deadline (silence → suspect → out of the routing set until a probe
// succeeds again).
type member struct {
	id       int
	remote   bool
	breaker  *Breaker
	probing  atomic.Bool // one health probe in flight at a time
	inflight atomic.Int64
	degraded atomic.Bool   // last health probe saw a non-Fresh calibration
	weight   atomic.Uint64 // math.Float64bits of the routing weight

	mu      sync.Mutex
	state   memberState
	rep     Replica
	addr    string
	fc      *frameClient // the current incarnation's frame link; nil while down
	gen     int
	strikes int
	upSince time.Time
	lastOK  time.Time // remote members: the last successful probe, or the join
	removed bool      // deliberately drained; the babysitter must not restart it
}

func (m *member) up() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == stateUp
}

func (m *member) currentAddr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != stateUp {
		return ""
	}
	return m.addr
}

// frames returns the frame link predicts take to the member, nil unless
// it is up.
func (m *member) frames() *frameClient {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != stateUp {
		return nil
	}
	return m.fc
}

// setIncarnation makes rep the member's current incarnation, with a
// fresh frame link to its address. Caller holds m.mu.
func (m *member) setIncarnation(rep Replica) {
	m.rep = rep
	m.addr = rep.Addr()
	m.fc = newFrameClient(m.addr)
}

// takeFrames detaches the member's frame link for the caller to close.
func (m *member) takeFrames() *frameClient {
	m.mu.Lock()
	defer m.mu.Unlock()
	fc := m.fc
	m.fc = nil
	return fc
}

// probeAddr is the address the health loop should probe: up members
// (liveness) and suspect members (recovery detection), never down,
// drained or failed ones.
func (m *member) probeAddr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.removed || (m.state != stateUp && m.state != stateSuspect) {
		return ""
	}
	return m.addr
}

// markSuspect flips an up remote member past its probe deadline to
// suspect; reports whether the transition happened (caller then
// resyncs the routing set).
func (m *member) markSuspect(now time.Time, interval time.Duration, after float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.remote || m.removed || m.state != stateUp || !suspect(m.lastOK, now, interval, after) {
		return false
	}
	m.state = stateSuspect
	return true
}

// probeOK records a remote member's successful probe at now and flips
// it back to up if it was suspect; reports whether that transition
// happened (caller then resyncs the routing set).
func (m *member) probeOK(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastOK = now
	if m.removed || m.state != stateSuspect {
		return false
	}
	m.state = stateUp
	m.upSince = now
	return true
}

// suspect is the failure rule for remote members: one whose last
// successful probe, at lastOK, is more than after probe intervals old
// at now. The health loop probes each up or suspect member once per
// interval and bounds each probe by it, so a live member's successes
// are at most two intervals apart.
func suspect(lastOK, now time.Time, interval time.Duration, after float64) bool {
	return silence(lastOK, now, interval) > after
}

// silence is the time since lastOK in probe intervals, never negative.
func silence(lastOK, now time.Time, interval time.Duration) float64 {
	return max(0, now.Sub(lastOK).Seconds()/interval.Seconds())
}

func (m *member) getWeight() float64 { return math.Float64frombits(m.weight.Load()) }

func (m *member) setWeight(w float64) { m.weight.Store(math.Float64bits(w)) }

// Cluster is the supervised fleet plus its router. Build with
// New, call Start, serve Handler; it is goroutine-safe.
type Cluster struct {
	cfg Config
	tun tuning
	adm *rm.Admission
	// client carries the health probes, /v1/observe and the fleet
	// scrape; predicts travel on each member's frame link instead.
	client *http.Client

	// members is append-only: a member's id is its index, forever. The
	// slice header is guarded by memMu (AddRemote appends); the members
	// themselves carry their own locks.
	memMu   sync.RWMutex
	members []*member
	// set is the routing set: the up members in id order. It is
	// copy-on-write, rebuilt under setMu, so a pick reads it without a
	// lock; turn rotates the pick among equally loaded members.
	setMu sync.Mutex
	set   atomic.Pointer[[]*member]
	turn  atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand // restart jitter

	retryTokens atomic.Int64 // milli-tokens

	draining atomic.Bool
	started  atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // babysitters, the health loop and its probes
	bg       sync.WaitGroup // background hedge attempts
}

// New builds an unstarted cluster, applying defaults for zero fields.
// Replicas == 0 is a remote-only cluster: no local fleet is spawned and
// members arrive via AddRemote / the membership manager.
func New(cfg Config) (*Cluster, error) { return newCluster(cfg, defaultTuning()) }

// newCluster is New with the given tuning.
func newCluster(cfg Config, tun tuning) (*Cluster, error) {
	if cfg.Replicas < 0 {
		return nil, errors.New("cluster: Config.Replicas must not be negative")
	}
	if cfg.Replicas > 0 && cfg.Factory == nil {
		return nil, errors.New("cluster: Config.Factory is required for local replicas")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// No replica compresses a response, so the transport does not offer
	// gzip: every replica would parse an Accept-Encoding it never uses.
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}
	c := &Cluster{
		cfg:    cfg,
		tun:    tun,
		adm:    rm.NewAdmission(tun.maxInFlight, tun.maxQueue),
		client: &http.Client{Transport: tr},
		rng:    rand.New(rand.NewSource(restartSeed)),
		stop:   make(chan struct{}),
	}
	c.retryTokens.Store(5_000) // a little starting credit so early faults can fail over
	c.members = make([]*member, cfg.Replicas)
	for i := range c.members {
		c.members[i] = &member{id: i, breaker: newBreaker(tun.breaker), state: stateDown} // until Start spawns it
		c.members[i].setWeight(1)
	}
	c.set.Store(new([]*member))
	return c, nil
}

// memberList snapshots the member slice. Members are append-only, so
// iterating the returned header without the lock is safe.
func (c *Cluster) memberList() []*member {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.members
}

func (c *Cluster) memberByID(id int) *member {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	if id < 0 || id >= len(c.members) {
		return nil
	}
	return c.members[id]
}

// Config returns the effective (default-filled) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Start spawns every replica and begins supervision. An initial spawn
// failure tears down what started and errors out — a cluster that
// cannot field its fleet at boot is a deployment problem, not one to
// heal around.
func (c *Cluster) Start() error {
	if !c.started.CompareAndSwap(false, true) {
		return errors.New("cluster: already started")
	}
	all := c.memberList()
	var locals []*member
	for _, m := range all {
		if !m.remote {
			locals = append(locals, m)
		}
	}
	for i, m := range locals {
		rep, err := c.cfg.Factory(m.id, 0)
		if err != nil {
			for j := 0; j < i; j++ {
				locals[j].mu.Lock()
				r := locals[j].rep
				locals[j].mu.Unlock()
				if r != nil {
					r.Kill()
				}
			}
			return fmt.Errorf("cluster: spawn replica %d: %w", m.id, err)
		}
		m.mu.Lock()
		m.state = stateUp
		m.setIncarnation(rep)
		m.upSince = c.tun.clock.Now()
		m.mu.Unlock()
	}
	c.resync() // remote members added before Start stay in it
	for _, m := range locals {
		c.wg.Add(1)
		go c.babysit(m)
	}
	c.wg.Add(1)
	go c.healthLoop()
	return nil
}

// AddRemote joins a remote prediction daemon at addr to the fleet with
// the given routing weight (weight <= 0 selects 1). It starts up and in
// the routing set immediately; from then on its probe deadline decides
// whether it stays. Returns the new member's id.
func (c *Cluster) AddRemote(addr string, weight float64) (int, error) {
	if err := validateMemberAddr(addr); err != nil {
		return 0, err
	}
	if weight <= 0 {
		weight = 1
	}
	c.memMu.Lock()
	for _, m := range c.members {
		m.mu.Lock()
		dup := m.addr == addr && !m.removed && m.state != stateFailed
		m.mu.Unlock()
		if dup {
			c.memMu.Unlock()
			return 0, fmt.Errorf("cluster: member %d already serves %s", m.id, addr)
		}
	}
	id := len(c.members)
	m := &member{
		id:      id,
		remote:  true,
		breaker: newBreaker(c.tun.breaker),
	}
	m.setWeight(weight)
	m.state = stateUp
	m.setIncarnation(newRemoteReplica(addr))
	m.upSince = c.tun.clock.Now()
	m.lastOK = m.upSince
	c.members = append(c.members, m)
	c.memMu.Unlock()
	c.resync()
	return id, nil
}

// ReweightMember changes member id's capacity share: the pick compares
// members by requests in flight per unit of weight. Weight 0 takes the
// member out of predict traffic — it never leads, fails over or hedges
// — while it stays in the fleet: probed, sent observations, and counted
// by UpCount.
func (c *Cluster) ReweightMember(id int, weight float64) error {
	m := c.memberByID(id)
	if m == nil {
		return fmt.Errorf("cluster: no member %d", id)
	}
	if weight < 0 {
		return fmt.Errorf("cluster: member %d weight %g must not be negative", id, weight)
	}
	m.setWeight(weight)
	return nil
}

// healthLoop watches every member. Each ProbeInterval every up or
// suspect member gets one /healthz probe on its own goroutine, so a hung
// member delays no other member's probe; a member whose last probe is
// still in flight is skipped. Remote members are first checked against
// their probe deadline: silence → suspect → out of the routing set.
// Local members are never suspect; their babysitter handles process
// death.
func (c *Cluster) healthLoop() {
	defer c.wg.Done()
	c.every(c.cfg.ProbeInterval, c.stop, func() {
		now := c.tun.clock.Now()
		for _, m := range c.memberList() {
			if m.markSuspect(now, c.cfg.ProbeInterval, c.cfg.SuspectAfter) {
				c.resync()
			}
			addr := m.probeAddr()
			if addr == "" || !m.probing.CompareAndSwap(false, true) {
				continue
			}
			c.wg.Add(1)
			go c.probeMember(m, addr)
		}
	})
}

// every runs round each interval on the cluster's clock, the interval
// counted from the end of the round before, until stop closes.
func (c *Cluster) every(interval time.Duration, stop <-chan struct{}, round func()) {
	var t serve.WaitTimer
	for {
		tick := t.Arm(c.tun.clock, interval)
		select {
		case <-stop:
			t.Disarm(tick)
			return
		case <-tick:
			t.Disarm(tick)
			round()
		}
	}
}

// bounded returns a context that ends when parent does or d from now
// on the cluster's clock, and the func that releases it.
func (c *Cluster) bounded(parent context.Context, d time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithCancel(parent)
	t := c.tun.clock.AfterFunc(d, cancel)
	return ctx, func() {
		t.Stop()
		cancel()
	}
}

// probeMember probes one member. The outcome feeds the breaker only when
// Allow granted it a slot: an Open breaker whose cooldown lapsed makes
// the probe the half-open test traffic, so recovery does not wait for a
// real request to risk itself. A successful probe records the trust
// state that drives the degraded-replica routing preference and, for a
// remote member, resets its probe deadline and readmits it when
// suspect.
func (c *Cluster) probeMember(m *member, addr string) {
	defer c.wg.Done()
	// The probe may take one interval. Its timer is stopped after the
	// member is free for the next round, so the end of the probe is an
	// event on the clock.
	ctx, release := c.bounded(context.Background(), c.cfg.ProbeInterval)
	defer release()
	defer m.probing.Store(false)
	allowed := m.breaker.Allow(c.tun.clock.Now())
	ok, degraded := c.probe(ctx, addr)
	if allowed {
		m.breaker.Record(c.tun.clock.Now(), ok)
	}
	if !ok {
		return
	}
	m.degraded.Store(degraded)
	if !m.remote {
		return
	}
	if m.probeOK(c.tun.clock.Now()) {
		c.resync()
	}
}

// --- supervision -------------------------------------------------------------

// babysit watches one member: when its replica dies it leaves the
// routing set immediately, and rejoins after a successful
// seeded-backoff respawn.
func (c *Cluster) babysit(m *member) {
	defer c.wg.Done()
	for {
		m.mu.Lock()
		rep := m.rep
		m.mu.Unlock()
		if rep == nil {
			return
		}
		select {
		case <-rep.Done():
		case <-c.stop:
			return
		}
		select {
		case <-c.stop:
			return
		default:
		}

		m.mu.Lock()
		if m.removed || m.state != stateUp {
			m.mu.Unlock()
			return
		}
		uptime := c.tun.clock.Now().Sub(m.upSince)
		m.state = stateDown
		m.rep = nil
		fc := m.fc
		m.fc = nil
		if uptime < minUptime {
			m.strikes++
		} else {
			m.strikes = 0
		}
		strikes := m.strikes
		m.mu.Unlock()
		c.resync()
		fc.close()

		var backoff serve.WaitTimer
		for {
			if strikes >= crashLoopBudget {
				m.mu.Lock()
				m.state = stateFailed
				m.mu.Unlock()
				return
			}
			wait := backoff.Arm(c.tun.clock, c.backoff(strikes))
			select {
			case <-wait:
				backoff.Disarm(wait)
			case <-c.stop:
				backoff.Disarm(wait)
				return
			}
			m.mu.Lock()
			gen := m.gen + 1
			m.mu.Unlock()
			rep2, err := c.cfg.Factory(m.id, gen)
			if err != nil {
				strikes++
				m.mu.Lock()
				m.strikes = strikes
				m.mu.Unlock()
				continue
			}
			m.mu.Lock()
			m.state = stateUp
			m.setIncarnation(rep2)
			m.gen = gen
			m.upSince = c.tun.clock.Now()
			m.mu.Unlock()
			c.resync()
			break
		}
	}
}

// backoff is the respawn delay for a given strike count: exponential
// from restartBase, capped at restartMax, plus up to 50% seeded jitter
// so a mass failure does not respawn the whole fleet in lockstep.
func (c *Cluster) backoff(strikes int) time.Duration {
	if strikes > 20 {
		strikes = 20
	}
	d := restartBase << strikes
	if d > restartMax || d <= 0 {
		d = restartMax
	}
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.rngMu.Unlock()
	return d + j
}

// resync rebuilds the routing set from the members that are up; after
// Shutdown it is empty. Every change of a member's state is followed by
// a resync, and resyncs are serialized, so the last one sees the last
// state.
func (c *Cluster) resync() {
	c.setMu.Lock()
	defer c.setMu.Unlock()
	var set []*member
	select {
	case <-c.stop:
	default:
		for _, m := range c.memberList() {
			if m.up() {
				set = append(set, m)
			}
		}
	}
	c.set.Store(&set)
}

// UpCount reports how many replicas are in the routing set, weight-0
// members included.
func (c *Cluster) UpCount() int { return len(*c.set.Load()) }

// probe asks the member at addr for /healthz until ctx ends: ok when
// it answers 200 with a status, degraded when that status is not "ok".
func (c *Cluster) probe(ctx context.Context, addr string) (ok, degraded bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return false, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, false
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&h); err != nil {
		return false, false
	}
	return true, h.Status != "ok"
}

// --- routing -----------------------------------------------------------------

// tryResult is one attempt's outcome: a transport error, or a status +
// body to pass through.
type tryResult struct {
	status int
	body   []byte
	err    error
	// final marks a transport error no replica could have avoided: the
	// client went away or the request deadline is spent.
	final bool
	// call holds body's memory; release recycles it once body is written
	// or dropped.
	call *call
}

func (r tryResult) release() { putCall(r.call) }

// retryable reports whether another replica might do better: transport
// errors, 5xx, and 429 (that replica is saturated; the next one may not
// be). 4xx client faults and 504 (the deadline is spent either
// way) are final, as are a vanished client and a spent request
// deadline — nobody is waiting for a second try. A per-try timeout is
// the replica's own failure and is retried.
func (r tryResult) retryable() bool {
	if r.final {
		return false
	}
	return r.err != nil || r.status >= 500 || r.status == http.StatusTooManyRequests
}

// lead returns the index in set of the member a request tries first,
// or -1 when every member has weight 0: the one with the fewest
// requests in flight per unit of weight among members whose breaker is
// not open and that are not degraded, or, when none qualifies, the
// least loaded of all. The scan starts at turn and only a strictly
// lower load displaces the best so far, so equally loaded members take
// turns as turn advances.
func lead(set []*member, turn uint64) int {
	best, fallback := -1, -1
	var bestLoad, fallbackLoad float64
	for k := range set {
		i := int((turn + uint64(k)) % uint64(len(set)))
		m := set[i]
		w := m.getWeight()
		if w <= 0 {
			continue
		}
		load := float64(m.inflight.Load()) / w
		if fallback < 0 || load < fallbackLoad {
			fallback, fallbackLoad = i, load
		}
		if (best < 0 || load < bestLoad) && m.breaker.State() != Open && !m.degraded.Load() {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		return fallback
	}
	return best
}

// route sends the request to the least-loaded member, then fails over
// along the routing set after it, with bounded retries and optional
// hedging. ctx is the client's; meta carries the request's deadline and
// correlation state onto every attempt's wire.
func (c *Cluster) route(ctx context.Context, meta *reqMeta) tryResult {
	set := *c.set.Load()
	first := lead(set, c.turn.Add(1))
	if first < 0 {
		return tryResult{err: ErrNoReplica}
	}
	last := tryResult{err: ErrNoReplica}
	tries := 0
	for k := 0; k < len(set) && tries < c.cfg.MaxTries; k++ {
		i := (first + k) % len(set)
		m := set[i]
		if m.getWeight() <= 0 || !m.up() {
			continue
		}
		if tries > 0 && !c.takeRetryToken() {
			break
		}
		if !m.breaker.Allow(c.tun.clock.Now()) {
			if tries > 0 {
				c.refundRetryToken()
			}
			continue
		}
		if tries > 0 {
			mRetries.Inc()
		}
		tries++
		var res tryResult
		if tries == 1 && c.cfg.HedgeDelay > 0 {
			res = c.hedged(ctx, set, i, meta)
		} else {
			res = c.attempt(ctx, m, meta)
		}
		last.release()
		last = res
		if !res.retryable() {
			return res
		}
		if ctx.Err() != nil || !c.tun.clock.Now().Before(meta.deadline) {
			break
		}
	}
	return last
}

// attempt sends the request to one member in a frame under the per-try
// timeout, recording the outcome in its breaker. Every attempt call
// must be preceded by exactly one Allow() on the member (half-open
// probe accounting). Transport errors are classified before they reach
// the breaker: a failure caused by the requesting client (cancel,
// disconnect) or by the request deadline expiring is forgiven — the
// replica did nothing wrong, and counting it would let misbehaving
// clients trip breakers.
func (c *Cluster) attempt(ctx context.Context, m *member, meta *reqMeta) tryResult {
	fc := m.frames()
	if fc == nil {
		m.breaker.Record(c.tun.clock.Now(), false)
		return tryResult{err: ErrNoReplica}
	}
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	// Sampled requests get a per-attempt span whose context rides the
	// record's trace block, so the replica's spans parent into this
	// attempt (an unsampled or traceless meta passes through StartCtx
	// unchanged at no cost).
	span, wtc := obs.DefaultTracer().StartCtx("lb", "attempt", meta.tc)
	defer span.End()
	// The try's one deadline: the request deadline or the per-try
	// timeout, whichever comes first.
	dl := c.tun.clock.Now().Add(c.tun.perTry)
	if meta.deadline.Before(dl) {
		dl = meta.deadline
	}
	cl, err := fc.call(ctx, c.tun.clock, dl, meta, wtc)
	if err != nil {
		return c.classifyTransportErr(ctx, meta.deadline, m, err)
	}
	res := tryResult{status: cl.status, body: cl.body, call: cl}
	// A JSON client gets the record back as the JSON the replica's own
	// encoder writes; a record that does not decode is the replica's
	// fault.
	if res.status == http.StatusOK && meta.contentType != serve.ContentTypeBinary {
		resp, err := serve.DecodeBinaryResponse(cl.body)
		if err != nil {
			putCall(cl)
			m.breaker.Record(c.tun.clock.Now(), false)
			return tryResult{err: err}
		}
		cl.out = serve.AppendJSONResponse(cl.out[:0], resp)
		res.body = cl.out
	}
	m.breaker.Record(c.tun.clock.Now(), !res.retryable())
	return res
}

// classifyTransportErr decides whose fault a failed attempt was. The
// client's context canceled → the client went away (ErrClientGone,
// forgiven); the request deadline spent → the request ran out of time
// across the fleet, not on this member (forgiven); anything else —
// per-try timeout, connection refused/reset, malformed response — is
// the replica's problem and feeds its breaker.
func (c *Cluster) classifyTransportErr(ctx context.Context, deadline time.Time, m *member, err error) tryResult {
	now := c.tun.clock.Now()
	cerr := ctx.Err()
	if cerr == nil && !now.Before(deadline) {
		cerr = context.DeadlineExceeded
	}
	switch cerr {
	case context.Canceled:
		m.breaker.Forgive()
		return tryResult{err: fmt.Errorf("%w: %v", ErrClientGone, err), final: true}
	case context.DeadlineExceeded:
		m.breaker.Forgive()
		return tryResult{err: fmt.Errorf("%w: %v", context.DeadlineExceeded, err), final: true}
	}
	m.breaker.Record(now, false)
	return tryResult{err: err}
}

// hedged races set[at] against a delayed second request to the next
// healthy member after it: if the primary has not answered within
// HedgeDelay (a stall, a long batch window, a GC pause), the hedge
// usually wins and the request rides out the hiccup at the cost of one
// duplicate. The loser is cancelled when hedged returns, whatever ctx
// the caller passed in.
func (c *Cluster) hedged(ctx context.Context, set []*member, at int, meta *reqMeta) tryResult {
	primary := set[at]
	var backup *member
	for k := 1; k < len(set); k++ {
		m := set[(at+k)%len(set)]
		if m.getWeight() > 0 && m.up() && m.breaker.State() != Open {
			backup = m
			break
		}
	}
	if backup == nil {
		return c.attempt(ctx, primary, meta)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The attempts may outlive the caller's frame: they get a copy, with
	// a record of their own (the caller's goes back to its pool).
	mc := *meta
	mc.rec = append([]byte(nil), meta.rec...)
	ch := make(chan tryResult, 2)
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		ch <- c.attempt(ctx, primary, &mc)
	}()
	var t serve.WaitTimer
	hedge := t.Arm(c.tun.clock, c.cfg.HedgeDelay)
	defer t.Disarm(hedge)
	launched := 1
	select {
	case res := <-ch:
		return res
	case <-hedge:
		if backup.breaker.Allow(c.tun.clock.Now()) {
			launched = 2
			c.bg.Add(1)
			go func() {
				defer c.bg.Done()
				ch <- c.attempt(ctx, backup, &mc)
			}()
		}
	}
	// A losing answer is left to the garbage collector, not the pool.
	res := <-ch
	if !res.retryable() || launched == 1 {
		return res
	}
	res2 := <-ch
	if !res2.retryable() {
		return res2
	}
	return res
}

// grantRetryCredit adds one request's worth of retry budget.
func (c *Cluster) grantRetryCredit() {
	add := int64(c.cfg.RetryBudget * 1000)
	if add <= 0 {
		return
	}
	if v := c.retryTokens.Add(add); v > retryTokenCap {
		c.retryTokens.Store(retryTokenCap)
	}
}

func (c *Cluster) takeRetryToken() bool {
	for {
		v := c.retryTokens.Load()
		if v < 1000 {
			return false
		}
		if c.retryTokens.CompareAndSwap(v, v-1000) {
			return true
		}
	}
}

func (c *Cluster) refundRetryToken() { c.retryTokens.Add(1000) }

// --- draining ----------------------------------------------------------------

// DrainMember removes member id from the fleet gracefully: it leaves
// the routing set immediately, requests in flight to it finish within
// ctx, then the replica shuts down. The member is not restarted.
func (c *Cluster) DrainMember(ctx context.Context, id int) error {
	m := c.memberByID(id)
	if m == nil {
		return fmt.Errorf("cluster: no member %d", id)
	}
	m.mu.Lock()
	if m.state != stateUp && m.state != stateSuspect {
		st := m.state
		m.mu.Unlock()
		return fmt.Errorf("cluster: member %d is %s, not up", id, st)
	}
	m.state = stateDraining
	m.removed = true
	rep := m.rep
	m.mu.Unlock()
	c.resync()

	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for m.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			rep.Kill()
			m.takeFrames().close()
			return fmt.Errorf("cluster: drain member %d: %w", id, ctx.Err())
		case <-tick.C:
		}
	}
	err := rep.Close(ctx)
	m.takeFrames().close()
	return err
}

// Shutdown drains the whole cluster: new requests are refused with 503
// + Retry-After, in-flight requests finish within ctx, then every
// replica is closed gracefully and supervision stops. Idempotent.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	var err error
	c.stopOnce.Do(func() {
		err = c.adm.Drain(ctx)
		close(c.stop)
		c.resync()

		// Hedge losers may outlive their front-door request; wait them
		// out (bounded by the per-try timeout) before closing replicas.
		bgDone := make(chan struct{})
		go func() {
			c.bg.Wait()
			close(bgDone)
		}()
		select {
		case <-bgDone:
		case <-ctx.Done():
		}

		for _, m := range c.memberList() {
			m.mu.Lock()
			m.removed = true
			rep := m.rep
			m.mu.Unlock()
			if rep != nil {
				_ = rep.Close(ctx)
			}
			m.takeFrames().close()
		}
		c.wg.Wait()
		c.client.CloseIdleConnections()
	})
	return err
}

// --- status ------------------------------------------------------------------

// MemberStatus is one member's externally visible state.
type MemberStatus struct {
	ID       int     `json:"id"`
	State    string  `json:"state"`
	Addr     string  `json:"addr,omitempty"`
	Remote   bool    `json:"remote,omitempty"`
	Weight   float64 `json:"weight"`
	Restarts int     `json:"restarts"`
	Strikes  int     `json:"strikes,omitempty"`
	Breaker  string  `json:"breaker"`
	InFlight int64   `json:"in_flight"`
	Degraded bool    `json:"degraded,omitempty"`
	// Suspicion is the silence of a remote member that is up or
	// suspect: the time since its last successful probe in probe
	// intervals. A drained member is no longer probed, so it has none.
	Suspicion float64 `json:"suspicion,omitempty"`
}

// Members reports every member's status.
func (c *Cluster) Members() []MemberStatus {
	list := c.memberList()
	now := c.tun.clock.Now()
	out := make([]MemberStatus, len(list))
	for i, m := range list {
		m.mu.Lock()
		out[i] = MemberStatus{
			ID:       m.id,
			State:    m.state.String(),
			Addr:     m.addr,
			Remote:   m.remote,
			Weight:   m.getWeight(),
			Restarts: m.gen,
			Strikes:  m.strikes,
			Breaker:  m.breaker.State().String(),
			InFlight: m.inflight.Load(),
			Degraded: m.degraded.Load(),
		}
		if m.state != stateUp && m.state != stateSuspect {
			out[i].Addr = ""
		} else if m.remote {
			out[i].Suspicion = silence(m.lastOK, now, c.cfg.ProbeInterval)
		}
		m.mu.Unlock()
	}
	return out
}

// --- HTTP front end ----------------------------------------------------------

// Handler returns the load-balancer mux — the same API surface as one
// replica, so clients cannot tell a fleet from a single daemon:
//
//	POST /v1/predict  — routed to the least-loaded replica, with failover
//	POST /v1/observe  — residual broadcast to every up replica
//	GET  /healthz     — fleet health + per-member detail
//	GET  /readyz      — 503 while draining or with zero replicas up
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", c.handlePredict)
	mux.HandleFunc("POST /v1/observe", c.handleObserve)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /readyz", c.handleReady)
	return mux
}

func (c *Cluster) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := c.tun.clock.Now()
	defer func() { mRouteSeconds.Observe(c.tun.clock.Now().Sub(start).Seconds()) }()

	lt, ptc := obs.StartRequestTrace("lb", obs.TraceContext{}, r.Header.Get(serve.TraceHeader), c.cfg.Sampler)
	defer lt.End()
	binaryReq := r.Header.Get("Content-Type") == serve.ContentTypeBinary
	rid, ridErr := serve.RequestID(r.Header)
	meta := reqMeta{rid: rid, tc: ptc}
	if binaryReq {
		meta.contentType = serve.ContentTypeBinary
	}
	fail := func(status int, msg string) {
		serve.WriteError(w, status, msg, serve.ErrorID(meta.rid))
	}

	if c.draining.Load() {
		fail(http.StatusServiceUnavailable, "cluster draining")
		return
	}
	if ridErr != nil {
		fail(http.StatusBadRequest, ridErr.Error())
		return
	}
	hb := getHopBuf()
	defer putHopBuf(hb)
	var err error
	hb.body, err = readLimited(hb.body, r.Body, r.ContentLength, serve.MaxBodyBytes+1)
	if err != nil {
		fail(http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	rec, err := serve.RecordOf(hb.body, binaryReq, hb.rec[:0])
	hb.rec, meta.rec = rec, rec
	decodeDone := c.tun.clock.Now()
	lbStDecode.Observe(decodeDone.Sub(start).Seconds())
	lt.Stage("decode", start, decodeDone)
	if err != nil {
		status := http.StatusBadRequest
		var reqErr *serve.RequestError
		if errors.As(err, &reqErr) {
			status = reqErr.Status
		}
		fail(status, err.Error())
		return
	}

	// One deadline for the whole request, carried in meta; its timer is
	// armed for admission only when a slot is not free at once. (The
	// client's context bounds the request too, through ctx.)
	meta.deadline = decodeDone.Add(c.cfg.Timeout)
	if err := c.admit(r.Context(), meta.deadline, &hb.timer); err != nil {
		done := c.tun.clock.Now()
		c.cfg.SLO.Record(done, done.Sub(start).Seconds(), false)
		if errors.Is(err, rm.ErrSubmitTimeout) {
			fail(http.StatusGatewayTimeout, err.Error())
			return
		}
		fail(http.StatusTooManyRequests, err.Error())
		return
	}
	defer c.adm.Release()
	c.grantRetryCredit()

	routeStart := c.tun.clock.Now()
	res := c.route(r.Context(), &meta)
	defer res.release()
	routeDone := c.tun.clock.Now()
	lbStRoute.Observe(routeDone.Sub(routeStart).Seconds())
	lt.Stage("route", routeStart, routeDone)
	if res.err != nil {
		// A vanished client burns no error budget.
		clientGone := errors.Is(res.err, ErrClientGone)
		if !clientGone {
			c.cfg.SLO.Record(routeDone, routeDone.Sub(start).Seconds(), false)
		}
		switch {
		case clientGone:
			// Nobody is listening; the status code exists for logs
			// only (nginx's 499 convention).
			fail(StatusClientClosedRequest, res.err.Error())
		case res.final:
			fail(http.StatusGatewayTimeout, res.err.Error())
		default:
			fail(http.StatusServiceUnavailable, fmt.Sprintf("%v: %v", ErrNoReplica, res.err))
		}
		return
	}
	// Upstream 4xx are the client's fault; everything else counts.
	if !clientFault(res.status) {
		c.cfg.SLO.Record(routeDone, routeDone.Sub(start).Seconds(), res.status == http.StatusOK)
	}
	if res.status == http.StatusOK {
		serve.WriteAnswer(w, res.body, binaryReq, meta.rid)
	} else {
		relayError(w, res.status, res.body, meta.rid)
	}
	encodeDone := c.tun.clock.Now()
	lbStEncode.Observe(encodeDone.Sub(routeDone).Seconds())
	lt.Stage("encode", routeDone, encodeDone)
}

// admit takes a front-door admission slot: at once when one is free,
// else waiting on tm, armed for deadline, or until ctx ends.
func (c *Cluster) admit(ctx context.Context, deadline time.Time, tm *serve.WaitTimer) error {
	if c.adm.TryAcquire() {
		return nil
	}
	expired := tm.Arm(c.tun.clock, deadline.Sub(c.tun.clock.Now()))
	defer tm.Disarm(expired)
	return c.adm.Acquire(ctx, expired)
}

// relayError answers with a replica's error envelope through serve's
// writer, so the client gets the replica's message and request id (rid
// when the envelope has none) under the headers a replica's own answer
// carries. A body that is no envelope becomes the message.
func relayError(w http.ResponseWriter, status int, body []byte, rid string) {
	var env serve.ErrorBody
	if json.Unmarshal(body, &env) != nil {
		env.Error = string(body)
	}
	serve.WriteError(w, status, env.Error, cmp.Or(env.RequestID, rid))
}

// hopBuf is one front-door request's pooled memory: the body as the
// client sent it, the binary record it is forwarded as, and the timer
// of its admission wait.
type hopBuf struct {
	body, rec []byte
	timer     serve.WaitTimer
}

var hopBufPool = sync.Pool{New: func() any { return new(hopBuf) }}

// maxPooledBody is the largest body buffer a pooled hopBuf keeps: one
// oversized body must not pin a megabyte in the pool.
const maxPooledBody = 64 << 10

func getHopBuf() *hopBuf { return hopBufPool.Get().(*hopBuf) }

func putHopBuf(hb *hopBuf) {
	if cap(hb.body) > maxPooledBody {
		hb.body = nil
	}
	hopBufPool.Put(hb)
}

// clientFault reports whether a replica's status blames the request
// itself: a 4xx other than 429, which only says that replica is busy.
func clientFault(status int) bool {
	return status >= 400 && status < 500 && status != http.StatusTooManyRequests
}

// observeResult is the /v1/observe broadcast summary.
type observeResult struct {
	Forwarded int `json:"forwarded"`
	Errors    int `json:"errors"`
}

// handleObserve broadcasts one residual observation to every up
// replica: each replica runs its own drift detector, so all of them
// need the evidence regardless of which one served the prediction.
// The posts go out at once, so a hung replica costs the broadcast one
// per-try timeout, not one each; the answers are folded in member order.
// When no replica took it and every one that answered refused it with
// the same client fault (a 4xx other than 429), that refusal is passed
// through: retrying an observation every replica rejects cannot help.
func (c *Cluster) handleObserve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, serve.MaxBodyBytes+1))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "read body: "+err.Error(), "")
		return
	}
	var addrs []string
	for _, m := range c.memberList() {
		if addr := m.currentAddr(); addr != "" {
			addrs = append(addrs, addr)
		}
	}
	type answer struct {
		status int
		body   []byte
		err    error
	}
	answers := make([]answer, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := &answers[i]
			a.status, a.body, a.err = c.postObserve(r.Context(), addr, body)
		}()
	}
	wg.Wait()
	var res observeResult
	// The first refusal, and how many answers matched its status.
	answered, refused := 0, 0
	var refusalStatus int
	var refusalBody []byte
	for _, a := range answers {
		if a.err != nil {
			res.Errors++
			continue
		}
		answered++
		if a.status == http.StatusOK {
			res.Forwarded++
			continue
		}
		res.Errors++
		if clientFault(a.status) && (refused == 0 || a.status == refusalStatus) {
			if refused == 0 {
				refusalStatus, refusalBody = a.status, a.body
			}
			refused++
		}
	}
	if res.Forwarded == 0 && answered > 0 && refused == answered {
		relayError(w, refusalStatus, refusalBody, "")
		return
	}
	status := http.StatusOK
	if res.Forwarded == 0 {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, res)
}

// postObserve sends one observation to the replica at addr under the
// per-try timeout and returns its status and (at most 4 KiB of) its
// answer; err is set when no answer arrived. The answer is what could
// be read: a body that breaks off does not undo the status.
func (c *Cluster) postObserve(ctx context.Context, addr string, body []byte) (int, []byte, error) {
	ctx, release := c.bounded(ctx, c.tun.perTry)
	defer release()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/observe", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	answer, _ := readLimited(nil, resp.Body, resp.ContentLength, 4096)
	return resp.StatusCode, answer, nil
}

// clusterHealth is the /healthz body.
type clusterHealth struct {
	Status     string         `json:"status"` // ok | degraded | down
	ReplicasUp int            `json:"replicas_up"`
	Draining   bool           `json:"draining,omitempty"`
	Members    []MemberStatus `json:"members"`
}

func (c *Cluster) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := clusterHealth{
		ReplicasUp: c.UpCount(),
		Draining:   c.draining.Load(),
		Members:    c.Members(),
	}
	// Desired capacity counts members that should be serving: drained
	// and crash-looped slots are gone on purpose, not missing.
	desired := 0
	for _, m := range c.memberList() {
		m.mu.Lock()
		if !m.removed && m.state != stateFailed {
			desired++
		}
		m.mu.Unlock()
	}
	switch {
	case h.ReplicasUp == 0:
		h.Status = "down"
	case h.ReplicasUp < desired:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	serve.WriteJSON(w, http.StatusOK, h)
}

// handleReady answers GET /readyz with a replica's readiness body:
// not ready while draining or with no replica up.
func (c *Cluster) handleReady(w http.ResponseWriter, r *http.Request) {
	reason := ""
	switch {
	case c.draining.Load():
		reason = "draining"
	case c.UpCount() == 0:
		reason = "no replicas up"
	}
	serve.WriteReady(w, reason, c.cfg.SLO, c.tun.clock.Now())
}
