// Package serve is the online prediction front end: an HTTP service
// (JSON and binary wire) that answers slowdown-adjusted cost queries
// from the Figueira–Berman model.
//
// By default requests are micro-batched. The mixture slowdowns are pure
// functions of the contender multiset (plus the delay^{i,j} column),
// and real scheduler traffic is heavily repetitive in exactly that key
// — many concurrent queries price different transfers under the same
// job mix. The server parks concurrent requests for one batch window,
// groups them per (kind, direction, j, contender multiset) key, and
// answers each group with a single PredictCommBatch/PredictCompBatch
// call: one Poisson-binomial DP per group per window. Group evaluations
// fan out on the shared internal/runner pool.
//
// With Config.FastPath a request that finds a free admission slot
// skips the batcher and is answered inline — from the precomputed
// surface when its key is resident there, by the exact DP otherwise
// (the kernel costs microseconds at most, the window a millisecond);
// only what cannot be admitted at once parks.
//
// Around the batcher sit the production concerns the rest of the stack
// already provides: rm.Admission bounds concurrent and queued requests
// (explicit 429s instead of collapse), per-request deadlines bound tail
// latency (504), and the caltrust trust state is consulted on every
// request — a Stale or Degraded calibration flips the server to the
// conservative p+1 fallback (answers flagged degraded, never silently
// wrong). Everything is instrumented through internal/obs.
//
// Batching is exact, not approximate: a batched answer is bit-for-bit
// identical to the direct Predictor call for the same request (the
// differential test enforces this over a randomized corpus).
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/obs"
	"contention/internal/rm"
	"contention/internal/runner"
)

// Admission rejections surface the admission controller's own sentinel
// errors, so clients of serve and of the router handle one vocabulary.
var (
	ErrQueueFull = rm.ErrQueueFull
	// ErrDeadline is returned when a request's deadline expires before
	// its batch is evaluated.
	ErrDeadline = errors.New("serve: request deadline exceeded")
	// ErrClosed is returned for requests submitted after Close.
	ErrClosed = errors.New("serve: server closed")
)

// The settings every Server runs with. DefaultWindow is what a zero
// Config.Window selects; the rest are defaultTuning's.
const (
	DefaultWindow      = time.Millisecond
	defaultMaxBatch    = 256
	DefaultMaxInFlight = 1024
	DefaultMaxQueue    = 4096
	DefaultTimeout     = 2 * time.Second
)

// Config parameterizes a Server.
type Config struct {
	// Pred answers the queries. Required.
	Pred *core.Predictor
	// Tracker, when non-nil, is the calibration trust state consulted on
	// every request: any non-Fresh state short-circuits to the p+1
	// degraded fallback, exactly like the batch drivers.
	Tracker *caltrust.Tracker
	// Pool fans group evaluations out at flush time; nil evaluates
	// serially on the flushing goroutine.
	Pool *runner.Pool
	// Window is the micro-batch window: how long the first request of a
	// window parks waiting for peers. 0 selects DefaultWindow; negative
	// disables batching: each request is flushed alone as it arrives.
	Window time.Duration
	// FastPath enables the batcher bypass: a request that wins an
	// admission slot without waiting is answered inline — from the
	// precomputed surface when its key is resident there, by the exact
	// DP otherwise — no batch window, no timer, no goroutine handoff.
	// Answers carry Fast=true. Off by default: the bypass answers
	// surface-resident keys from the interpolated surface, which is
	// bit-exact only at grid nodes, so it is opt-in alongside
	// AttachSurface.
	FastPath bool
	// Sampler head-samples requests for full span trees (see trace.go).
	// nil never starts a trace locally but still honors sampled contexts
	// arriving from upstream.
	Sampler *obs.Sampler
	// SLO, when non-nil, receives every finished request (latency +
	// success) and gates /readyz detail with burn-rate status.
	SLO *obs.SLOTracker
}

// tuning holds the settings a Server runs with that no command sets.
// New runs with defaultTuning; the package's tests pass others to
// newServer.
type tuning struct {
	// maxBatch flushes a group early when it reaches this many requests.
	maxBatch int
	// maxInFlight bounds concurrently admitted requests, maxQueue the
	// requests waiting for admission beyond that.
	maxInFlight, maxQueue int
	// timeout is the per-request deadline ceiling; a propagated upstream
	// deadline or a frame's budget may only tighten it.
	timeout time.Duration
	// clock times the batch window, the request deadlines and every
	// stage a request is attributed to.
	clock obs.Clock
}

// defaultTuning is the tuning every command runs with.
func defaultTuning() tuning {
	return tuning{
		maxBatch:    defaultMaxBatch,
		maxInFlight: DefaultMaxInFlight,
		maxQueue:    DefaultMaxQueue,
		timeout:     DefaultTimeout,
		clock:       obs.WallClock(),
	}
}

// Server is the prediction service. Build with New; it is goroutine-safe.
type Server struct {
	cfg Config
	tun tuning
	adm *rm.Admission

	mu sync.Mutex
	// The open window's groups: index maps a batch key's hash to its
	// groups (chained through group.next on a collision), groups lists
	// them in arrival order. Both are emptied per window, not remade.
	index    map[uint64]*group
	groups   []*group
	seed     maphash.Seed
	pendingN int
	armed    bool
	closed   bool
	// timer is the batch-window timer, made stopped in New and Reset when
	// a window opens (nil when Window < 0: no window ever opens).
	timer obs.Timer

	// draining marks the server not-ready (/readyz answers 503) while
	// requests already in the pipeline are still answered.
	draining atomic.Bool
	// flushing tracks batch evaluations in flight so Close can wait for
	// them: after Close returns, nothing touches the predictor again.
	flushing sync.WaitGroup

	// frames are the live frame connections (guarded by mu): Close
	// answers what they have read, then closes them. frameLoops counts
	// their read loops.
	frames     map[*frameConn]struct{}
	frameLoops sync.WaitGroup

	// flushStall, when non-nil, is invoked at the start of every flush —
	// the fault-injection hook the soak test uses to stall evaluation.
	flushStall func()
	// slotHook, when non-nil, sees every parked-request slot taken from
	// (get) and given back to (!get) the pool — the test hook that
	// catches a leaked or doubly recycled slot.
	slotHook func(r *pendingReq, get bool)
}

// pendingReq is one parked request. Slots are pooled and own their
// query: q's slices alias cs and sets, which are reused across uses, so
// a request lent from a pooled workspace can leave before its batch is
// evaluated. ch holds at most one answer and is empty whenever the slot
// is in the pool.
//
// The waiter and the flush hand a slot over through state. The flush
// answers with a CAS waiting→answered and then sends; a waiter whose
// deadline fires first does a CAS waiting→abandoned and leaves, and the
// flush recycles the slot instead of sending. A waiter whose CAS loses
// knows the answer is on its way: it drains it, then recycles. Exactly
// one side recycles, and never with an answer left in ch.
type pendingReq struct {
	q     query
	cs    []core.Contender
	sets  []core.DataSet
	key   []byte // q's batch key
	ch    chan outcome
	state atomic.Uint32
	// enq is when the request entered the batcher (batch-wait starts);
	// rt is its tracing handle, nil unless sampled.
	enq time.Time
	rt  *obs.RequestTrace
}

// Parked-request states.
const (
	reqWaiting uint32 = iota
	reqAnswered
	reqAbandoned
)

var pendingPool = sync.Pool{New: func() any { return &pendingReq{ch: make(chan outcome, 1)} }}

// getPending takes a slot from the pool and copies q into it.
func (s *Server) getPending(q *query, enq time.Time, rt *obs.RequestTrace) *pendingReq {
	r := pendingPool.Get().(*pendingReq)
	if s.slotHook != nil {
		s.slotHook(r, true)
	}
	r.cs = append(r.cs[:0], q.cs...)
	r.sets = append(r.sets[:0], q.sets...)
	r.q = *q
	r.q.cs, r.q.sets = r.cs, r.sets
	r.enq, r.rt = enq, rt
	r.state.Store(reqWaiting)
	return r
}

// putPending gives a slot back to the pool.
func (s *Server) putPending(r *pendingReq) {
	if s.slotHook != nil {
		s.slotHook(r, false)
	}
	r.rt = nil
	pendingPool.Put(r)
}

// answer is the flush's last touch of r: it hands out to the waiter,
// or recycles r when the waiter has already given up.
func (s *Server) answer(r *pendingReq, out outcome) {
	if r.state.CompareAndSwap(reqWaiting, reqAnswered) {
		r.ch <- out
		return
	}
	s.putPending(r)
}

// abandon is the waiter's side when its deadline or ctx ends first.
func (s *Server) abandon(r *pendingReq) {
	if r.state.CompareAndSwap(reqWaiting, reqAbandoned) {
		return // the flush recycles r
	}
	<-r.ch // answered already: the send is on its way
	s.putPending(r)
}

type outcome struct {
	resp Response
	err  error
}

// group is the set of parked requests sharing one batch key, with the
// scratch its batched call reads and writes. Groups are pooled, so the
// scratch is reused too.
type group struct {
	key    []byte
	next   *group // the next group whose key has the same hash
	reqs   []*pendingReq
	sets   [][]core.DataSet // PredictCommBatch's input
	dcomps []float64        // PredictCompBatch's input
	vals   []float64        // the batch call's answers
}

var groupPool = sync.Pool{New: func() any { return new(group) }}

// recycle empties g and gives it back to the pool.
func (g *group) recycle() {
	clear(g.reqs)
	clear(g.sets)
	g.reqs, g.sets = g.reqs[:0], g.sets[:0]
	g.dcomps, g.vals = g.dcomps[:0], g.vals[:0]
	g.next = nil
	groupPool.Put(g)
}

// batchFlush is one set of detached groups on its way to evaluation.
// Records are pooled, and work is drain bound once when a record is
// made, so a pool helper costs nothing but its goroutine's closure.
type batchFlush struct {
	s    *Server
	gs   []*group
	next atomic.Int64 // the next group to claim
	wg   sync.WaitGroup
	work func()
}

var flushPool = sync.Pool{New: func() any {
	f := new(batchFlush)
	f.work = f.drain
	return f
}}

// drain evaluates groups until none is left to claim.
func (f *batchFlush) drain() {
	for {
		i := f.next.Add(1) - 1
		if i >= int64(len(f.gs)) {
			return
		}
		f.s.evalGroup(f.gs[i])
	}
}

// New builds a server, applying defaults for zero Config fields.
func New(cfg Config) (*Server, error) { return newServer(cfg, defaultTuning()) }

// newServer is New with the given tuning.
func newServer(cfg Config, tun tuning) (*Server, error) {
	if cfg.Pred == nil {
		return nil, errors.New("serve: Config.Pred is required")
	}
	cfg = cfg.WithDefaults()
	s := &Server{
		cfg:   cfg,
		tun:   tun,
		adm:   rm.NewAdmission(tun.maxInFlight, tun.maxQueue),
		index: map[uint64]*group{},
		seed:  maphash.MakeSeed(),
	}
	if cfg.Window > 0 {
		s.timer = s.tun.clock.AfterFunc(cfg.Window, s.flushWindow)
		s.timer.Stop()
	}
	return s, nil
}

// WithDefaults returns cfg with a zero Window set to DefaultWindow: the
// configuration a server built from cfg runs with.
func (cfg Config) WithDefaults() Config {
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	return cfg
}

// Config returns the effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Admission exposes the admission controller (for stats).
func (s *Server) Admission() *rm.Admission { return s.adm }

// Drain marks the server not-ready: GET /readyz answers 503 so routers
// and external load balancers stop sending new work, while requests
// already accepted (and stragglers that still arrive) are answered
// normally. Close implies Drain.
func (s *Server) Drain() { s.draining.Store(true) }

// Close flushes every parked request and fails all future submissions
// with ErrClosed. It is idempotent, and it does not return until every
// in-flight batch evaluation — including one started by a concurrent
// batch-window timer — has finished: after Close returns, the server
// will never touch the predictor again, so the caller may safely tear
// the predictor or pool down. Frame connections stop reading; the
// frames they already read are answered (a flushed answer, or ErrClosed
// as a 503) before they close.
func (s *Server) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.flushing.Wait()
		s.frameLoops.Wait()
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	f := s.takeLocked()
	s.mu.Unlock()
	if f != nil {
		s.runFlush(f)
	}
	s.flushing.Wait()
	s.closeFrames()
}

// degradeReason reports why predictions cannot currently be trusted
// ("" when they can).
func (s *Server) degradeReason() string {
	if t := s.cfg.Tracker; t != nil {
		if st := t.State(); st != caltrust.Fresh {
			return fmt.Sprintf("calibration %s: %s", st, t.Reason())
		}
	}
	if st := s.cfg.Pred.Stale(); st != "" {
		return "stale calibration: " + st
	}
	return ""
}

// predict answers one validated query, micro-batching it with
// concurrent peers. It blocks until the answer is computed, the context
// ends or the deadline passes (ErrDeadline), or admission rejects the
// request. rt is a tracing handle (nil unless sampled); deadline, when
// not zero, bounds the admission wait and the batch wait together. It
// is timed by tm, which the caller lends disarmed and gets back the same
// way. Stage boundaries are timed on every request for the attribution
// histograms; rt promotes the same intervals to spans when non-nil. q is
// only read before predict parks, so it may alias pooled memory the
// caller reuses once predict returns.
func (s *Server) predict(ctx context.Context, q *query, rt *obs.RequestTrace, deadline time.Time, tm *WaitTimer) (Response, error) {
	requestsOf(q.kind).Inc()
	admStart := s.tun.clock.Now()
	var expired <-chan struct{}
	if !deadline.IsZero() {
		expired = tm.Arm(s.tun.clock, deadline.Sub(admStart))
	}
	defer tm.Disarm(expired)
	if err := s.adm.Acquire(ctx, expired); err != nil {
		if errors.Is(err, rm.ErrSubmitTimeout) {
			return Response{}, fmt.Errorf("%w: %w", ErrDeadline, err)
		}
		return Response{}, err
	}
	defer s.adm.Release()
	admDone := s.tun.clock.Now()
	stAdmission.Observe(admDone.Sub(admStart).Seconds())
	rt.Stage("admission", admStart, admDone)

	// Degraded fast path: a calibration that cannot be trusted answers
	// with the conservative worst case immediately — no batching, no DP.
	if reason := s.degradeReason(); reason != "" {
		resp, err := s.predictDegraded(q, reason)
		done := s.tun.clock.Now()
		stCompute.Observe(done.Sub(admDone).Seconds())
		rt.Stage("compute", admDone, done)
		return resp, err
	}

	req := s.getPending(q, admDone, rt)
	f, err := s.enqueue(req)
	if err != nil {
		s.putPending(req)
		return Response{}, err
	}
	if f != nil {
		s.runFlush(f)
	}
	select {
	case out := <-req.ch:
		s.putPending(req)
		return out.resp, out.err
	case <-ctx.Done():
		s.abandon(req)
		return Response{}, fmt.Errorf("%w: %w", ErrDeadline, ctx.Err())
	case <-expired:
		s.abandon(req)
		return Response{}, fmt.Errorf("%w: %w", ErrDeadline, context.DeadlineExceeded)
	}
}

// WaitTimer is a reusable deadline timer on a Clock: a request's on
// serve's batched path, a pooled try's on the router's frame hop, and
// the router's own waits. Between uses it is disarmed with no tick left
// in its channel, so the next wait cannot expire the moment it begins.
type WaitTimer struct {
	clock obs.Clock
	t     obs.Timer
	tick  chan struct{} // the expiry; one send per firing
	fired chan struct{} // one send per firing, after tick's
}

// Arm starts the timer for d on clock and returns its channel. Every
// Arm is paired with one Disarm, whether or not the channel delivered.
func (w *WaitTimer) Arm(clock obs.Clock, d time.Duration) <-chan struct{} {
	if w.clock != clock {
		w.clock = clock
		w.tick, w.fired = make(chan struct{}, 1), make(chan struct{}, 1)
		w.t = clock.AfterFunc(d, w.expire)
	} else {
		w.t.Reset(d)
	}
	return w.tick
}

func (w *WaitTimer) expire() {
	w.tick <- struct{}{}
	w.fired <- struct{}{}
}

// Disarm stops the timer Arm returned ch for (nil ch: it was not
// armed). When it has fired already, Disarm waits for the firing to end
// and takes back its tick if nobody received it.
func (w *WaitTimer) Disarm(ch <-chan struct{}) {
	if ch == nil || w.t.Stop() {
		return
	}
	<-w.fired
	select {
	case <-w.tick:
	default:
	}
}

// tryFast answers a query without touching the batcher when an
// admission slot is free right now: from the precomputed surface when
// the key is resident there, otherwise inline with the exact DP —
// microseconds at most, where parking costs the batch window. Degraded
// calibrations and model errors fall through to the full Predict
// pipeline, which owns waiting, degradation, and error reporting. The
// whole path is allocation-free and retains nothing, so it is safe
// against pooled (binary) query slices.
func (s *Server) tryFast(q *query, rt *obs.RequestTrace) (Response, bool) {
	if !s.cfg.FastPath || s.draining.Load() {
		return Response{}, false
	}
	if !s.adm.TryAcquire() {
		return Response{}, false
	}
	defer s.adm.Release()
	start := s.tun.clock.Now()
	stage, hist := "surface", stSurface
	v, ok := trySurface(s.cfg.Pred, q)
	if !ok && s.degradeReason() == "" {
		var err error
		v, err = exact(s.cfg.Pred, q)
		ok = err == nil
		stage, hist = "compute", stCompute
	}
	if !ok {
		return Response{}, false
	}
	done := s.tun.clock.Now()
	hist.Observe(done.Sub(start).Seconds())
	rt.Stage(stage, start, done)
	requestsOf(q.kind).Inc()
	return Response{Value: v, Fast: true}, true
}

// predictDegraded answers via the Robust p+1 fallback.
func (s *Server) predictDegraded(q *query, reason string) (Response, error) {
	mDegraded.Inc()
	var pred core.Prediction
	var err error
	switch q.kind {
	case "comm":
		pred, err = s.cfg.Pred.PredictCommRobust(q.dir, q.sets, q.cs)
	default:
		pred, err = s.cfg.Pred.PredictCompRobust(q.dcomp, q.cs)
	}
	if err != nil {
		return Response{}, err
	}
	if !pred.Degraded {
		// Robust found the calibration usable after all (e.g. the mark
		// cleared between the check and the call); keep the flag honest.
		pred.Degraded, pred.Reason = true, reason
	}
	return Response{Value: pred.Value, Degraded: true, Reason: pred.Reason}, nil
}

// enqueue parks the request under its batch key. It returns a non-nil
// flush when the caller must run it at once (the group hit maxBatch,
// or batching across arrivals is disabled), and ErrClosed after Close.
func (s *Server) enqueue(req *pendingReq) (*batchFlush, error) {
	req.key = appendBatchKey(req.key[:0], &req.q)
	h := maphash.Bytes(s.seed, req.key)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	g := s.groupLocked(h, req.key)
	g.reqs = append(g.reqs, req)
	s.pendingN++
	mQueueDepthMax.SetMax(float64(s.pendingN))

	var f *batchFlush
	switch {
	case len(g.reqs) >= s.tun.maxBatch:
		f = s.detachLocked(h, g)
	case s.cfg.Window < 0:
		f = s.takeLocked()
	case !s.armed:
		s.armed = true
		s.timer.Reset(s.cfg.Window)
	}
	s.mu.Unlock()
	return f, nil
}

// groupLocked returns the open group for key (whose hash is h), opening
// one if there is none. Caller holds s.mu.
func (s *Server) groupLocked(h uint64, key []byte) *group {
	head := s.index[h]
	for g := head; g != nil; g = g.next {
		if bytes.Equal(g.key, key) {
			return g
		}
	}
	g := groupPool.Get().(*group)
	g.key = append(g.key[:0], key...)
	g.next = head
	s.index[h] = g
	s.groups = append(s.groups, g)
	return g
}

// detachLocked takes the one group g (key hash h) out of the window
// into a flush; the other groups stay parked. Caller holds s.mu.
func (s *Server) detachLocked(h uint64, g *group) *batchFlush {
	if head := s.index[h]; head == g {
		if g.next == nil {
			delete(s.index, h)
		} else {
			s.index[h] = g.next
		}
	} else {
		for p := head; p != nil; p = p.next {
			if p.next == g {
				p.next = g.next
				break
			}
		}
	}
	g.next = nil
	i := slices.Index(s.groups, g)
	s.groups = slices.Delete(s.groups, i, i+1)
	s.pendingN -= len(g.reqs)
	f := s.newFlushLocked()
	f.gs = append(f.gs, g)
	return f
}

// takeLocked detaches every open group into a flush, or returns nil
// when there is none. Caller holds s.mu.
func (s *Server) takeLocked() *batchFlush {
	if len(s.groups) == 0 {
		return nil
	}
	f := s.newFlushLocked()
	f.gs, s.groups = s.groups, f.gs
	clear(s.index)
	s.pendingN = 0
	return f
}

// newFlushLocked takes an empty flush record from the pool and
// registers it with s.flushing, under the lock, so Close can wait for
// it; runFlush signals its end. Caller holds s.mu.
func (s *Server) newFlushLocked() *batchFlush {
	f := flushPool.Get().(*batchFlush)
	f.s = s
	s.flushing.Add(1)
	return f
}

// flushWindow is the batch-window timer callback.
func (s *Server) flushWindow() {
	s.mu.Lock()
	s.armed = false
	if s.closed {
		// Close already detached (and flushed) every parked group; a
		// late-firing timer must not start a second evaluation.
		s.mu.Unlock()
		return
	}
	f := s.takeLocked()
	s.mu.Unlock()
	if f != nil {
		s.runFlush(f)
	}
}

// runFlush evaluates a flush's groups — one slowdown DP each, whatever
// its size — then recycles the groups and the record. The calling
// goroutine works through the groups itself, and every free token of
// Config.Pool adds a helper beside it, one at most per further group.
// No request's deadline or ctx reaches a flush: its peers still wait on
// the answer.
func (s *Server) runFlush(f *batchFlush) {
	if s.flushStall != nil {
		s.flushStall()
	}
	span := obs.StartSpan("serve", "batch-flush")
	for n := len(f.gs) - 1; n > 0 && s.cfg.Pool.Help(&f.wg, f.work); n-- {
	}
	f.drain()
	f.wg.Wait()
	span.End()
	for _, g := range f.gs {
		g.recycle()
	}
	clear(f.gs)
	f.gs, f.s = f.gs[:0], nil
	f.next.Store(0)
	flushPool.Put(f)
	s.flushing.Done()
}

// evalGroup answers every request in one group with a single batched
// predictor call.
func (s *Server) evalGroup(g *group) {
	n := len(g.reqs)
	if n == 0 {
		return
	}
	mBatches.Inc()
	mBatchSize.Observe(float64(n))

	// Batch rendezvous ends here: everything between enqueue and this
	// point was time spent waiting for peers (or the window timer).
	evalStart := s.tun.clock.Now()
	for _, r := range g.reqs {
		if !r.enq.IsZero() {
			stBatchWait.Observe(evalStart.Sub(r.enq).Seconds())
			r.rt.Stage("batch-wait", r.enq, evalStart)
		}
	}

	// All requests in a group share kind, direction, j selection, and
	// contender multiset — that is what the batch key canonicalizes.
	// first is read only before any member is answered: an answered slot
	// goes back to the pool.
	first := &g.reqs[0].q
	var err error
	switch first.kind {
	case "comm":
		for _, r := range g.reqs {
			g.sets = append(g.sets, r.q.sets)
		}
		g.vals, err = s.cfg.Pred.PredictCommBatch(g.vals[:0], first.dir, g.sets, first.cs)
	default:
		for _, r := range g.reqs {
			g.dcomps = append(g.dcomps, r.q.dcomp)
		}
		if first.hasJ {
			g.vals, err = s.cfg.Pred.PredictCompBatchWithJ(g.vals[:0], g.dcomps, first.cs, first.j)
		} else {
			g.vals, err = s.cfg.Pred.PredictCompBatch(g.vals[:0], g.dcomps, first.cs)
		}
	}
	// One DP answered the whole group; each request waited exactly that
	// long, so the compute stage is attributed to every member. Stages
	// are recorded before the outcome is sent — once the handler unblocks
	// it may end the root span.
	evalDone := s.tun.clock.Now()
	evalSecs := evalDone.Sub(evalStart).Seconds()
	for i, r := range g.reqs {
		stCompute.Observe(evalSecs)
		r.rt.Stage("compute", evalStart, evalDone)
		out := outcome{err: err}
		if err == nil {
			out.resp = Response{Value: g.vals[i], Batch: n}
		}
		s.answer(r, out)
	}
}

// appendBatchKey appends q's batch key to dst. The contenders are taken
// in (CommFraction, IOFraction, MsgWords) order, sorted by insertion on
// a stack copy: sets are small, and the sort allocates nothing.
func appendBatchKey(dst []byte, q *query) []byte {
	var scratch [MaxContenders]core.Contender
	cs := append(scratch[:0], q.cs...)
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && contenderLess(&cs[j], &cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	// kind[0] is 'c' for both comm and comp — use the last byte ('m' vs
	// 'p') so the two kinds can never share a batch group.
	dst = append(dst, q.kind[len(q.kind)-1], byte(q.dir))
	if q.hasJ {
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(q.j))
	} else {
		dst = append(dst, 0)
	}
	for _, c := range cs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.CommFraction))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.IOFraction))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.MsgWords))
	}
	return dst
}

// contenderLess is the batch key's contender order.
func contenderLess(a, b *core.Contender) bool {
	if a.CommFraction != b.CommFraction {
		return a.CommFraction < b.CommFraction
	}
	if a.IOFraction != b.IOFraction {
		return a.IOFraction < b.IOFraction
	}
	return a.MsgWords < b.MsgWords
}

// --- HTTP front end ----------------------------------------------------------

// Handler returns the service mux:
//
//	POST /v1/predict  — one prediction query (Request → Response)
//	GET  /v1/frames   — upgrade to a frame connection: many predictions
//	                    multiplexed on one connection (frames.go)
//	POST /v1/observe  — feed a predicted/observed residual to the trust
//	                    tracker (drift detection over live traffic)
//	GET  /healthz     — liveness + trust state
//	GET  /readyz      — routability: 503 while draining or while the
//	                    calibration is Degraded (failed validation)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /v1/frames", s.handleFrames)
	mux.HandleFunc("POST /v1/observe", s.handleObserve)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// RetryAfterSeconds is the back-off hint set on every 429 and 503
// response, so routers and external load balancers pace their retries
// instead of hammering an overloaded or draining instance.
const RetryAfterSeconds = "1"

// outcomeOf classifies an error into its responses-by-outcome series.
func outcomeOf(err error) *obs.Counter {
	if err == nil {
		return mOutcomeOK
	}
	// errors.As makes its target escape, so it is declared only on the
	// error path — a success must not pay a heap allocation for it.
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		return mOutcomeBadRequest
	case errors.Is(err, ErrQueueFull):
		return mOutcomeRejected
	case errors.Is(err, ErrDeadline):
		return mOutcomeTimeout
	case errors.Is(err, ErrClosed):
		return mOutcomeClosed
	default:
		return mOutcomeModelError
	}
}

// Content-Type header values, shared by every response: assigning a
// shared slice costs nothing where Header().Set allocates one per call.
var (
	contentTypeJSON   = []string{"application/json"}
	contentTypeBinary = []string{ContentTypeBinary}
)

// handlePredict is POST /v1/predict for both wires. It lends the
// request a pooled workspace and takes it back once the response is
// written.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	ws := getWorkspace()
	s.predictHTTP(w, r, ws)
	putWorkspace(ws)
}

// predictHTTP answers one prediction request in ws: the body is decoded
// by the wire its Content-Type names, answered, and the answer encoded
// by the same wire into ws's output buffer. A warm fast-path request
// allocates nothing. Pipeline errors are answered as the JSON error
// envelope on either wire (the status carries the verdict).
func (s *Server) predictHTTP(w http.ResponseWriter, r *http.Request, ws *workspace) {
	start := s.tun.clock.Now()
	var wr wire = jsonWire{}
	binaryReq := r.Header.Get("Content-Type") == ContentTypeBinary
	if binaryReq {
		wr = binaryWire{}
	}
	ws.tc = obs.TraceContext{}
	rid, err := RequestID(r.Header)
	if err == nil {
		err = wr.decode(r.Body, ws)
	}
	resp, rt, err := s.servePredict(r.Context(), ws, start, err, r.Header.Get(TraceHeader), s.requestTimeout(r))
	encStart := s.finished(start, err)
	if err != nil {
		WriteError(w, errorStatus(err), err.Error(), ErrorID(rid))
	} else {
		ws.out = wr.appendResponse(ws.out[:0], resp)
		WriteAnswer(w, ws.out, binaryReq, rid)
	}
	s.encoded(rt, encStart)
}

// RequestID applies the request-id rule to an HTTP predict: it returns
// the client's X-Request-Id (empty when none was sent), or a 400 when
// the id is longer than MaxRequestIDBytes — the most a frame can
// forward. Every error answer then carries the id, minted when the
// client sent none (ErrorID), and so does a JSON success (WriteAnswer).
func RequestID(h http.Header) (string, error) {
	rid := h.Get(RequestIDHeader)
	if len(rid) > MaxRequestIDBytes {
		return "", badRequest("%s of %d bytes exceeds %d", RequestIDHeader, len(rid), MaxRequestIDBytes)
	}
	return rid, nil
}

// WriteAnswer writes a successful prediction, body encoded on the
// binary wire or the JSON one. Only the JSON wire echoes rid: on the
// binary wire, the one tuned for cost, the echo would be a header
// allocation per answer.
func WriteAnswer(w http.ResponseWriter, body []byte, binary bool, rid string) {
	h := w.Header()
	if binary {
		h["Content-Type"] = contentTypeBinary
	} else {
		h["Content-Type"] = contentTypeJSON
		if rid != "" {
			h.Set(RequestIDHeader, rid)
		}
	}
	_, _ = w.Write(body)
}

// finished accounts one answered request, whichever transport carried
// it, and returns when its encode stage starts. A client fault (a 4xx
// RequestError) burns no SLO error budget and is left out of both SLIs.
func (s *Server) finished(start time.Time, err error) time.Time {
	outcome := outcomeOf(err)
	done := s.tun.clock.Now()
	secs := done.Sub(start).Seconds()
	outcome.Inc()
	mRequestSeconds.Observe(secs)
	if outcome != mOutcomeBadRequest {
		s.cfg.SLO.Record(done, secs, err == nil)
	}
	return done
}

// encoded closes a request's encode stage and its trace.
func (s *Server) encoded(rt *obs.RequestTrace, encStart time.Time) {
	encDone := s.tun.clock.Now()
	stEncode.Observe(encDone.Sub(encStart).Seconds())
	rt.Stage("encode", encStart, encDone)
	rt.End()
}

// errorStatus is the status a pipeline error is answered with.
func errorStatus(err error) int {
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return statusFor(err)
}

// WriteJSON answers status with v as JSON, with the Retry-After
// back-off hint on 429 and 503.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		h.Set("Retry-After", RetryAfterSeconds)
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers a failed request with the JSON error envelope. A
// non-empty rid correlates it, in both the X-Request-Id header and the
// body.
func WriteError(w http.ResponseWriter, status int, msg, rid string) {
	if rid != "" {
		w.Header().Set(RequestIDHeader, rid)
	}
	WriteJSON(w, status, ErrorBody{Error: msg, RequestID: rid})
}

// DeadlineHeader carries the caller's remaining request budget in
// milliseconds. A client in front of the daemon sets it so the daemon
// bounds its own work (batch window, queue wait) to time someone is
// still waiting for, instead of finishing answers nobody will read. (A
// frame carries its budget in microseconds instead; see frames.go.)
const DeadlineHeader = "X-Request-Deadline-Ms"

// requestTimeout is the effective per-request budget: the tuning's
// timeout, tightened by a propagated upstream deadline if one arrived.
// An unparsable or non-positive header is ignored — a confused caller
// must not widen or zero the local bound.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	d := s.tun.timeout
	if h := r.Header.Get(DeadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			if up := time.Duration(ms) * time.Millisecond; up < d {
				d = up
			}
		}
	}
	return d
}

// servePredict is the one prediction pipeline behind both transports:
// it takes the query a wire decoded into ws (started at decStart, with
// verdict decErr) and answers it — fast path first, then admission and
// the batcher under timeout and ctx. The returned *obs.RequestTrace is nil
// unless the request is sampled (in-band trace block, the transport's
// trace header, or local head sampler — in that order); the in-band
// context is only known after decode, so the decode stage span is
// recorded retroactively.
func (s *Server) servePredict(ctx context.Context, ws *workspace, decStart time.Time, decErr error, traceHeader string, timeout time.Duration) (Response, *obs.RequestTrace, error) {
	decDone := s.tun.clock.Now()
	rt, _ := obs.StartRequestTrace("serve", ws.tc, traceHeader, s.cfg.Sampler)
	if decErr != nil {
		return Response{}, rt, decErr
	}
	stDecode.Observe(decDone.Sub(decStart).Seconds())
	rt.Stage("decode", decStart, decDone)
	// Fast path first: an inline answer needs no deadline and cannot
	// block.
	if resp, ok := s.tryFast(&ws.q, rt); ok {
		return resp, rt, nil
	}
	// Slow path: the query's slices alias ws's pooled backing arrays,
	// which the batcher does not retain — it parks a copy in a pooled
	// slot of its own.
	resp, err := s.predict(ctx, &ws.q, rt, decDone.Add(timeout), &ws.timer)
	return resp, rt, err
}

// observeRequest is the wire form of one residual observation.
type observeRequest struct {
	Predicted float64 `json:"predicted"`
	Observed  float64 `json:"observed"`
}

type observeResponse struct {
	Drifted bool   `json:"drifted"`
	Trust   string `json:"trust"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tracker == nil {
		WriteError(w, http.StatusUnprocessableEntity, "no trust tracker configured", "")
		return
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	var req observeRequest
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "malformed observation: "+err.Error(), "")
		return
	}
	drifted, err := s.cfg.Tracker.Observe(req.Predicted, req.Observed)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	WriteJSON(w, http.StatusOK, observeResponse{Drifted: drifted, Trust: s.cfg.Tracker.State().String()})
}

// healthResponse is the /healthz body.
type healthResponse struct {
	Status   string  `json:"status"`
	Trust    string  `json:"trust"`
	Reason   string  `json:"reason,omitempty"`
	WindowMS float64 `json:"window_ms"`
	InFlight int     `json:"in_flight"`
	Waiting  int     `json:"waiting"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{
		Status:   "ok",
		Trust:    caltrust.Fresh.String(),
		WindowMS: float64(s.cfg.Window) / float64(time.Millisecond),
		InFlight: s.adm.InFlight(),
		Waiting:  s.adm.Waiting(),
	}
	if t := s.cfg.Tracker; t != nil {
		h.Trust = t.State().String()
		h.Reason = t.Reason()
	}
	// A replica-local staleness mark (e.g. the RM invalidated this
	// calibration) is degradation evidence even when the tracker still
	// trusts its own validation — mirror degradeReason, which flags the
	// answers themselves.
	if h.Trust == caltrust.Fresh.String() {
		if st := s.cfg.Pred.Stale(); st != "" {
			h.Trust = caltrust.Stale.String()
			h.Reason = st
		}
	}
	if h.Trust != caltrust.Fresh.String() {
		h.Status = "degraded"
	}
	WriteJSON(w, http.StatusOK, h)
}

// readyResponse is the /readyz body of a replica and of a router alike.
type readyResponse struct {
	Ready  bool           `json:"ready"`
	Reason string         `json:"reason,omitempty"`
	SLO    *obs.SLOStatus `json:"slo,omitempty"`
}

// handleReady implements GET /readyz: readiness for new traffic, as
// distinct from /healthz liveness. Not-ready while draining or while
// the calibration is Degraded — failed validation outright, so every
// answer would be the blind p+1 fallback. A merely Stale calibration
// stays ready: degraded answers are conservative but still useful, and
// pulling the replica would shed capacity for no correctness gain.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	reason := ""
	switch {
	case s.draining.Load():
		reason = "draining"
	default:
		if t := s.cfg.Tracker; t != nil && t.State() == caltrust.Degraded {
			reason = "calibration degraded: " + t.Reason()
		}
	}
	WriteReady(w, reason, s.cfg.SLO, s.tun.clock.Now())
}

// WriteReady answers GET /readyz: 200 {"ready":true} when reason is
// empty, else 503 with the reason and the back-off hint. A non-nil slo
// adds the objective tracker's burn-rate detail as of now. An SLO
// breach is reported but never a reason: pulling a slow instance sheds
// capacity and usually makes the burn worse.
func WriteReady(w http.ResponseWriter, reason string, slo *obs.SLOTracker, now time.Time) {
	body := readyResponse{Ready: reason == "", Reason: reason}
	if slo != nil {
		st := slo.Status(now)
		body.SLO = &st
	}
	status := http.StatusOK
	if reason != "" {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, body)
}
