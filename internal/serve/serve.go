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
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
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

// Admission rejections surface the resource manager's own sentinel
// errors, so clients of both layers handle one vocabulary.
var (
	ErrQueueFull = rm.ErrQueueFull
	// ErrDeadline is returned when a request's deadline expires before
	// its batch is evaluated.
	ErrDeadline = errors.New("serve: request deadline exceeded")
	// ErrClosed is returned for requests submitted after Close.
	ErrClosed = errors.New("serve: server closed")
)

// Defaults applied by New for zero Config fields.
const (
	DefaultWindow      = time.Millisecond
	DefaultMaxBatch    = 256
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
	// disables batching across arrivals (each request still batches with
	// whatever queued while a flush was in progress).
	Window time.Duration
	// MaxBatch flushes a group early when it reaches this many requests.
	// 0 selects DefaultMaxBatch.
	MaxBatch int
	// MaxInFlight bounds concurrently admitted requests (0 selects
	// DefaultMaxInFlight); MaxQueue bounds requests waiting for
	// admission beyond that (0 selects DefaultMaxQueue).
	MaxInFlight int
	MaxQueue    int
	// Timeout is the per-request deadline ceiling applied by the HTTP
	// handler. 0 selects DefaultTimeout.
	Timeout time.Duration
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

// Server is the prediction service. Build with New; it is goroutine-safe.
type Server struct {
	cfg Config
	adm *rm.Admission

	mu       sync.Mutex
	groups   map[string]*group
	pendingN int
	armed    bool
	closed   bool
	timer    *time.Timer // pending batch-window timer (nil when unarmed)

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
}

// pendingReq is one parked request.
type pendingReq struct {
	q  query
	ch chan outcome
	// enq is when the request entered the batcher (batch-wait starts);
	// rt is its tracing handle, nil unless sampled.
	enq time.Time
	rt  *reqTrace
}

type outcome struct {
	resp Response
	err  error
}

// group is the set of parked requests sharing one batch key.
type group struct {
	reqs []*pendingReq
}

// New builds a server, applying defaults for zero Config fields.
func New(cfg Config) (*Server, error) {
	if cfg.Pred == nil {
		return nil, errors.New("serve: Config.Pred is required")
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	return &Server{
		cfg:    cfg,
		adm:    rm.NewAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		groups: map[string]*group{},
	}, nil
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

// Draining reports whether Drain (or Close) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

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
		s.timer = nil
	}
	gs := s.takeLocked()
	if len(gs) > 0 {
		s.flushing.Add(1)
	}
	s.mu.Unlock()
	if len(gs) > 0 {
		s.runGroups(gs)
		s.flushing.Done()
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

// Predict answers one validated query, micro-batching it with
// concurrent peers. It blocks until the answer is computed, the context
// ends (ErrDeadline), or admission rejects the request.
func (s *Server) Predict(ctx context.Context, q query) (Response, error) {
	return s.predict(ctx, q, nil, time.Time{}, nil)
}

// predict is Predict with a tracing handle (nil unless sampled) and an
// optional deadline (zero: ctx alone bounds the request). The deadline
// is timed by tm, which the caller lends stopped and drained and gets
// back the same way; no context is built for it unless admission has
// to wait. Stage boundaries are timed on every request for the
// attribution histograms; rt promotes the same intervals to spans when
// non-nil.
func (s *Server) predict(ctx context.Context, q query, rt *reqTrace, deadline time.Time, tm *WaitTimer) (Response, error) {
	mRequests.With(q.kind).Inc()
	admStart := time.Now()
	if err := s.adm.AcquireUntil(ctx, deadline); err != nil {
		if errors.Is(err, rm.ErrSubmitTimeout) {
			return Response{}, fmt.Errorf("%w: %w", ErrDeadline, err)
		}
		return Response{}, err
	}
	defer s.adm.Release()
	admDone := time.Now()
	stAdmission.Observe(admDone.Sub(admStart).Seconds())
	rt.stage("admission", admStart, admDone)

	// Degraded fast path: a calibration that cannot be trusted answers
	// with the conservative worst case immediately — no batching, no DP.
	if reason := s.degradeReason(); reason != "" {
		resp, err := s.predictDegraded(q, reason)
		done := time.Now()
		stCompute.Observe(done.Sub(admDone).Seconds())
		rt.stage("compute", admDone, done)
		return resp, err
	}

	var expired <-chan time.Time
	if !deadline.IsZero() {
		expired = tm.Arm(time.Until(deadline))
	}
	req := &pendingReq{q: q, ch: make(chan outcome, 1), enq: admDone, rt: rt}
	if flushNow := s.enqueue(req); flushNow != nil {
		s.runGroups(flushNow)
		s.flushing.Done()
	}
	select {
	case out := <-req.ch:
		tm.Disarm(expired, false)
		return out.resp, out.err
	case <-ctx.Done():
		tm.Disarm(expired, false)
		return Response{}, fmt.Errorf("%w: %w", ErrDeadline, ctx.Err())
	case <-expired:
		tm.Disarm(expired, true)
		return Response{}, fmt.Errorf("%w: %w", ErrDeadline, context.DeadlineExceeded)
	}
}

// WaitTimer is a reusable deadline timer: a request's on serve's
// batched path, a pooled try's on the router's frame hop. Between uses
// it is stopped with its channel drained: both modules declare go 1.22,
// where Stop does not drain the channel, so a tick left behind would
// expire the next wait the moment it began.
type WaitTimer struct{ t *time.Timer }

// Arm starts the timer for d and returns its channel.
func (w *WaitTimer) Arm(d time.Duration) <-chan time.Time {
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d)
	}
	return w.t.C
}

// Disarm stops a timer Arm returned ch for (nil ch: it was not armed);
// received says its tick was already taken from ch.
func (w *WaitTimer) Disarm(ch <-chan time.Time, received bool) {
	if ch != nil && !received && !w.t.Stop() {
		<-w.t.C
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
func (s *Server) tryFast(q *query, rt *reqTrace) (Response, bool) {
	if !s.cfg.FastPath || s.draining.Load() {
		return Response{}, false
	}
	if !s.adm.TryAcquire() {
		mFastMisses.Inc()
		return Response{}, false
	}
	defer s.adm.Release()
	start := time.Now()
	stage, hist := "surface", stSurface
	v, ok := trySurface(s.cfg.Pred, q)
	if !ok && s.degradeReason() == "" {
		var err error
		v, err = exact(s.cfg.Pred, q)
		ok = err == nil
		stage, hist = "compute", stCompute
	}
	if !ok {
		mFastMisses.Inc()
		return Response{}, false
	}
	done := time.Now()
	hist.Observe(done.Sub(start).Seconds())
	rt.stage(stage, start, done)
	mFastHits.Inc()
	mRequests.With(q.kind).Inc()
	return Response{Value: v, Fast: true}, true
}

// predictDegraded answers via the Robust p+1 fallback.
func (s *Server) predictDegraded(q query, reason string) (Response, error) {
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
// group list when the caller must flush immediately (group hit
// MaxBatch, or batching across arrivals is disabled); the caller must
// then call s.flushing.Done() after runGroups — the flush was
// registered here, under the lock, so Close can wait for it.
func (s *Server) enqueue(req *pendingReq) []*group {
	key := batchKey(req.q)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		req.ch <- outcome{err: ErrClosed}
		return nil
	}
	g := s.groups[key]
	if g == nil {
		g = &group{}
		s.groups[key] = g
	}
	g.reqs = append(g.reqs, req)
	s.pendingN++
	mQueueDepth.Set(float64(s.pendingN))
	mQueueDepthMax.SetMax(float64(s.pendingN))

	if len(g.reqs) >= s.cfg.MaxBatch {
		delete(s.groups, key)
		s.pendingN -= len(g.reqs)
		mQueueDepth.Set(float64(s.pendingN))
		s.flushing.Add(1)
		s.mu.Unlock()
		return []*group{g}
	}
	if s.cfg.Window < 0 {
		gs := s.takeLocked()
		s.flushing.Add(1)
		s.mu.Unlock()
		return gs
	}
	if !s.armed {
		s.armed = true
		s.timer = time.AfterFunc(s.cfg.Window, s.flushWindow)
	}
	s.mu.Unlock()
	return nil
}

// takeLocked detaches every parked group. Caller holds s.mu.
func (s *Server) takeLocked() []*group {
	gs := make([]*group, 0, len(s.groups))
	for key, g := range s.groups {
		gs = append(gs, g)
		delete(s.groups, key)
	}
	s.pendingN = 0
	mQueueDepth.Set(0)
	return gs
}

// flushWindow is the batch-window timer callback.
func (s *Server) flushWindow() {
	s.mu.Lock()
	s.armed = false
	s.timer = nil
	if s.closed {
		// Close already detached (and flushed) every parked group; a
		// late-firing timer must not start a second evaluation.
		s.mu.Unlock()
		return
	}
	gs := s.takeLocked()
	if len(gs) == 0 {
		s.mu.Unlock()
		return
	}
	s.flushing.Add(1)
	s.mu.Unlock()
	s.runGroups(gs)
	s.flushing.Done()
}

// runGroups evaluates detached groups, fanning out on the pool. Each
// group costs one slowdown DP regardless of its size.
func (s *Server) runGroups(gs []*group) {
	if len(gs) == 0 {
		return
	}
	if s.flushStall != nil {
		s.flushStall()
	}
	span := obs.StartSpan("serve", "batch-flush")
	start := time.Now()
	// The flush context is deliberately Background: individual request
	// deadlines must not cancel work their batch peers still wait on.
	_, _ = runner.Map(context.Background(), s.cfg.Pool, gs,
		func(_ context.Context, _ int, g *group) (struct{}, error) {
			s.evalGroup(g)
			return struct{}{}, nil
		})
	mFlushSeconds.Observe(time.Since(start).Seconds())
	span.End()
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
	evalStart := time.Now()
	for _, r := range g.reqs {
		if !r.enq.IsZero() {
			stBatchWait.Observe(evalStart.Sub(r.enq).Seconds())
			r.rt.stage("batch-wait", r.enq, evalStart)
		}
	}

	first := g.reqs[0].q
	// All requests in a group share kind, direction, j selection, and
	// contender multiset — that is what the batch key canonicalizes.
	var vals []float64
	var err error
	switch first.kind {
	case "comm":
		batches := make([][]core.DataSet, n)
		for i, r := range g.reqs {
			batches[i] = r.q.sets
		}
		vals, err = s.cfg.Pred.PredictCommBatch(first.dir, batches, first.cs)
	default:
		dcomps := make([]float64, n)
		for i, r := range g.reqs {
			dcomps[i] = r.q.dcomp
		}
		if first.hasJ {
			vals, err = s.cfg.Pred.PredictCompBatchWithJ(dcomps, first.cs, first.j)
		} else {
			vals, err = s.cfg.Pred.PredictCompBatch(dcomps, first.cs)
		}
	}
	// One DP answered the whole group; each request waited exactly that
	// long, so the compute stage is attributed to every member. Stages
	// are recorded before the outcome is sent — once the handler unblocks
	// it may end the root span.
	evalDone := time.Now()
	evalSecs := evalDone.Sub(evalStart).Seconds()
	if err != nil {
		for _, r := range g.reqs {
			stCompute.Observe(evalSecs)
			r.rt.stage("compute", evalStart, evalDone)
			r.ch <- outcome{err: err}
		}
		return
	}
	for i, r := range g.reqs {
		stCompute.Observe(evalSecs)
		r.rt.stage("compute", evalStart, evalDone)
		r.ch <- outcome{resp: Response{Value: vals[i], Batch: n}}
	}
}

// batchKey canonicalizes a query into its micro-batch key: kind,
// direction, explicit-j selection, and the order-insensitive contender
// multiset. Two queries with equal keys are answerable by one batched
// predictor call.
func batchKey(q query) string {
	var buf [256]byte
	return string(appendBatchKey(buf[:0], &q))
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

// setBackoffHint stamps the Retry-After header for statuses that ask
// the client to come back later.
func setBackoffHint(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", RetryAfterSeconds)
	}
}

// outcomeLabel classifies an error for the responses-by-outcome series.
func outcomeLabel(err error) string {
	if err == nil {
		return "ok"
	}
	// errors.As makes its target escape, so it is declared only on the
	// error path — a success must not pay a heap allocation for it.
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		return "bad_request"
	case errors.Is(err, ErrQueueFull):
		return "rejected"
	case errors.Is(err, ErrDeadline):
		return "timeout"
	case errors.Is(err, ErrClosed):
		return "closed"
	default:
		return "model_error"
	}
}

// Content-Type header values of a successful answer, shared by every
// response: assigning a shared slice costs nothing where Header().Set
// allocates one per call.
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
// envelope on either wire (the status carries the verdict); only the
// JSON wire echoes X-Request-Id on success.
func (s *Server) predictHTTP(w http.ResponseWriter, r *http.Request, ws *workspace) {
	start := time.Now()
	var wr wire = jsonWire{}
	contentType := contentTypeJSON
	binaryReq := r.Header.Get("Content-Type") == ContentTypeBinary
	if binaryReq {
		wr, contentType = binaryWire{}, contentTypeBinary
		mBinaryRequests.Inc()
	}
	ws.tc = obs.TraceContext{}
	err := wr.decode(r.Body, ws)
	resp, rt, err := s.servePredict(r.Context(), ws, start, err, r.Header.Get(TraceHeader), s.requestTimeout(r))
	encStart := s.finished(start, err)
	if err != nil {
		s.writeErrorEnvelope(w, r, err)
	} else {
		if !binaryReq {
			if rid := r.Header.Get(RequestIDHeader); rid != "" {
				w.Header().Set(RequestIDHeader, rid)
			}
		}
		ws.out = wr.appendResponse(ws.out[:0], resp)
		w.Header()["Content-Type"] = contentType
		_, _ = w.Write(ws.out)
	}
	s.encoded(rt, encStart)
}

// finished accounts one answered request, whichever transport carried
// it, and returns when its encode stage starts.
func (s *Server) finished(start time.Time, err error) time.Time {
	mResponses.With(outcomeLabel(err)).Inc()
	mRequestSeconds.Observe(time.Since(start).Seconds())
	s.recordSLO(start, err)
	return time.Now()
}

// encoded closes a request's encode stage and its trace.
func (s *Server) encoded(rt *reqTrace, encStart time.Time) {
	encDone := time.Now()
	stEncode.Observe(encDone.Sub(encStart).Seconds())
	rt.stage("encode", encStart, encDone)
	rt.end()
}

// errorStatus is the status a pipeline error is answered with.
func errorStatus(err error) int {
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return statusFor(err)
}

// writeErrorEnvelope answers a pipeline error as the JSON envelope,
// correlated by request id: the client's X-Request-Id when sent, a
// minted one otherwise, echoed in both the header and the body.
func (s *Server) writeErrorEnvelope(w http.ResponseWriter, r *http.Request, err error) {
	status := errorStatus(err)
	rid := r.Header.Get(RequestIDHeader)
	if rid == "" {
		rid = newRequestID()
	}
	w.Header().Set(RequestIDHeader, rid)
	setBackoffHint(w, status)
	writeJSON(w, status, errorBody{Error: err.Error(), RequestID: rid})
}

// DeadlineHeader carries the caller's remaining request budget in
// milliseconds. A client in front of the daemon sets it so the daemon
// bounds its own work (batch window, queue wait) to time someone is
// still waiting for, instead of finishing answers nobody will read. (A
// frame carries its budget in microseconds instead; see frames.go.)
const DeadlineHeader = "X-Request-Deadline-Ms"

// requestTimeout is the effective per-request budget: the configured
// Timeout, tightened by a propagated upstream deadline if one arrived.
// An unparsable or non-positive header is ignored — a confused caller
// must not widen or zero the local bound.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	d := s.cfg.Timeout
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
// the batcher under timeout and ctx. The returned *reqTrace is nil
// unless the request is sampled (in-band trace block, the transport's
// trace header, or local head sampler — in that order); the in-band
// context is only known after decode, so the decode stage span is
// recorded retroactively.
func (s *Server) servePredict(ctx context.Context, ws *workspace, decStart time.Time, decErr error, traceHeader string, timeout time.Duration) (Response, *reqTrace, error) {
	decDone := time.Now()
	rt := s.requestTrace(traceHeader, ws.tc)
	if decErr != nil {
		return Response{}, rt, decErr
	}
	stDecode.Observe(decDone.Sub(decStart).Seconds())
	rt.stage("decode", decStart, decDone)
	// Fast path first: an inline answer needs no deadline and cannot
	// block.
	if resp, ok := s.tryFast(&ws.q, rt); ok {
		return resp, rt, nil
	}
	// Slow path: the query's slices alias ws's pooled backing arrays,
	// but the batcher retains the query past this function's return (a
	// peer's flush may still read it after our deadline fires). Clone
	// before enqueueing; the allocation rides the path that runs a DP
	// anyway.
	q := ws.q
	q.cs = append([]core.Contender(nil), q.cs...)
	q.sets = append([]core.DataSet(nil), q.sets...)
	resp, err := s.predict(ctx, q, rt, time.Now().Add(timeout), &ws.timer)
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
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: "no trust tracker configured"})
		return
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	var req observeRequest
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed observation: " + err.Error()})
		return
	}
	drifted, err := s.cfg.Tracker.Observe(req.Predicted, req.Observed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, observeResponse{Drifted: drifted, Trust: s.cfg.Tracker.State().String()})
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
	writeJSON(w, http.StatusOK, h)
}

// readyResponse is the /readyz body. SLO carries the objective
// tracker's burn-rate detail when one is configured — an SLO breach is
// reported (operators and fleet pages see it) but does not flip
// readiness: pulling a slow replica sheds capacity and usually makes
// the burn worse.
type readyResponse struct {
	Ready  bool           `json:"ready"`
	Reason string         `json:"reason,omitempty"`
	SLO    *obs.SLOStatus `json:"slo,omitempty"`
}

// handleReady implements GET /readyz: readiness for new traffic, as
// distinct from /healthz liveness. Not-ready (503 + Retry-After) while
// draining or while the calibration is Degraded — failed validation
// outright, so every answer would be the blind p+1 fallback. A merely
// Stale calibration stays ready: degraded answers are conservative but
// still useful, and pulling the replica would shed capacity for no
// correctness gain.
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
	var slo *obs.SLOStatus
	if s.cfg.SLO != nil {
		st := s.cfg.SLO.Status()
		slo = &st
	}
	if reason != "" {
		setBackoffHint(w, http.StatusServiceUnavailable)
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Ready: false, Reason: reason, SLO: slo})
		return
	}
	writeJSON(w, http.StatusOK, readyResponse{Ready: true, SLO: slo})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
