// Load driving: the one issue loop behind cmd/loadgen, the experiments
// scenario sweep and the replay differentials. It owns the in-process
// targets those drivers self-serve (one server, one fleet), the one
// post-and-decode, the pacers, the one accounting of a run's outcomes,
// and the one rule a replayed run is held to.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"contention/internal/cluster"
	"contention/internal/core"
	"contention/internal/runner"
	"contention/internal/serve"
	"contention/internal/surface"
)

// --- targets ----------------------------------------------------------------

// Target is a self-served prediction endpoint on a loopback port.
type Target struct {
	// Addr is the listener's host:port.
	Addr string
	stop func()
}

// URL is the target's predict endpoint.
func (t *Target) URL() string { return "http://" + t.Addr + "/v1/predict" }

// Close stops the listener, waits for its goroutine, then stops
// whatever serves behind it.
func (t *Target) Close() { t.stop() }

// Serve serves h on a fresh loopback port until Close, which then runs
// stop. A failed listen runs stop at once.
func Serve(h http.Handler, stop func()) (*Target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		return nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always ErrServerClosed after Close
	}()
	return &Target{Addr: ln.Addr().String(), stop: func() { _ = hs.Close(); <-done; stop() }}, nil
}

// SyntheticPredictor builds a predictor on serve's synthetic calibration;
// withSurface attaches the precomputed slowdown surface of the same
// tables.
func SyntheticPredictor(withSurface bool) (*core.Predictor, error) {
	cal := serve.SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil || !withSurface {
		return pred, err
	}
	s, err := surface.Build(cal.Tables, surface.Config{})
	if err != nil {
		return nil, err
	}
	return pred, pred.AttachSurface(s)
}

// SelfServe starts one in-process prediction server (synthetic
// calibration, micro-batch window) on a loopback port; withSurface
// attaches the precomputed surface and turns the batcher-bypass fast
// path on.
func SelfServe(window time.Duration, withSurface bool) (*Target, error) {
	pred, err := SyntheticPredictor(withSurface)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Pred: pred, Pool: runner.New(0), Window: window, FastPath: withSurface,
	})
	if err != nil {
		return nil, err
	}
	return Serve(srv.Handler(), func() { srv.Close() })
}

// SelfServeFleet starts a supervised fleet of n in-process replicas
// (synthetic calibration, micro-batch window, no surface) behind the
// affinity router on a loopback port. Affinity routing keeps equal
// contender mixes on one replica, so batched% holds up against the
// single-replica number instead of diluting by 1/n.
func SelfServeFleet(n int, window time.Duration) (*Target, error) {
	c, err := cluster.New(cluster.Config{
		Replicas: n,
		Factory:  cluster.InProcessFactory(cluster.InProcConfig{Window: window}),
	})
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	return Serve(c.Handler(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
}

// Client returns an HTTP client keeping 4·conc idle connections per
// host — the most a Drive with conc workers has in flight — so a run
// reuses connections instead of dialing.
func Client(conc int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * conc,
		MaxIdleConnsPerHost: 4 * conc,
	}}
}

// ContentType is the request Content-Type of a wire format.
func ContentType(format string) string {
	if format == FormatBinary {
		return serve.ContentTypeBinary
	}
	return "application/json"
}

// --- post ---------------------------------------------------------------------

// Outcome is one issued request's result. Err is set for a transport or
// decode failure, a non-200 status (Status keeps the code, which replay
// verification compares) and an arrival dropped on overload.
type Outcome struct {
	Status  int
	Resp    serve.Response
	Latency time.Duration
	Err     error
}

// Post sends one wire body, with the trace header when traceHdr is
// non-empty, and decodes the answer. Latency runs to the response
// headers. A binary answer only comes with a 200: pipeline errors are the
// JSON envelope whatever the request format, so a non-200 is read off
// the status alone.
func Post(client *http.Client, url, contentType, traceHdr string, body []byte) Outcome {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Outcome{Err: err}
	}
	req.Header.Set("Content-Type", contentType)
	if traceHdr != "" {
		req.Header.Set(serve.TraceHeader, traceHdr)
	}
	resp, err := client.Do(req)
	o := Outcome{Latency: time.Since(t0), Err: err}
	if err != nil {
		return o
	}
	defer resp.Body.Close()
	o.Status = resp.StatusCode
	switch {
	case resp.StatusCode != http.StatusOK:
		_, _ = io.Copy(io.Discard, resp.Body)
		o.Err = fmt.Errorf("status %d", resp.StatusCode)
	case contentType == serve.ContentTypeBinary:
		var raw []byte
		if raw, o.Err = io.ReadAll(resp.Body); o.Err == nil {
			o.Resp, o.Err = serve.DecodeBinaryResponse(raw)
		}
	default:
		o.Err = json.NewDecoder(resp.Body).Decode(&o.Resp)
	}
	return o
}

// --- pacing -------------------------------------------------------------------

// pacer yields the next arrival's offset from run start. ok is false
// when the schedule is exhausted (a uniform pacer never exhausts).
type pacer interface {
	next() (offset time.Duration, ok bool)
}

// uniformPacer reproduces the legacy fixed-rate ticker schedule:
// arrival k (1-based) fires at k·interval, with the interval clamped to
// 1ns exactly as the ticker construction always clamped it.
type uniformPacer struct {
	interval time.Duration
	k        int64
}

func newUniformPacer(rate float64) *uniformPacer {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	return &uniformPacer{interval: interval}
}

func (p *uniformPacer) next() (time.Duration, bool) {
	p.k++
	return time.Duration(p.k) * p.interval, true
}

// schedulePacer replays a fixed offset schedule (a scenario realization
// or a recorded trace).
type schedulePacer struct {
	offsets []time.Duration
	i       int
}

func (p *schedulePacer) next() (time.Duration, bool) {
	if p.i >= len(p.offsets) {
		return 0, false
	}
	off := p.offsets[p.i]
	p.i++
	return off, true
}

// paceLoop fires arrive(seq) at each pacer offset, synchronously and in
// order, until the schedule is exhausted or the next arrival would land
// past deadline d. A loop that falls behind wall clock issues late
// instead of dropping — open-loop arrivals never slow down, they pile
// up.
func paceLoop(p pacer, d time.Duration, arrive func(seq int)) {
	start := time.Now()
	for seq := 0; ; seq++ {
		off, ok := p.next()
		if !ok || off > d {
			return
		}
		if wait := time.Until(start.Add(off)); wait > 0 {
			time.Sleep(wait)
		}
		arrive(seq)
	}
}

// openSeed seeds the paced loop's body draws; the stream it starts is
// pinned by TestOpenLoopDrawOrderUnchanged.
const openSeed = 77

// overloadFmt is the dropped-arrival diagnostic, pinned by test so
// dashboards grepping for it keep matching.
const overloadFmt = "open-loop overload: %d requests in flight"

// --- the issue loop -----------------------------------------------------------

// Shape says how Drive issues requests. With no Rate and no Offsets it
// is the closed loop: Workers issue back to back. Otherwise a pacer fires
// arrivals — every 1/Rate seconds, or at the schedule's Offsets — each
// issued on its own goroutine with at most 4·Workers in flight. A Rate
// arrival over that cap is recorded as an overload error (an overloaded
// server surfaces as drops, not as a goroutine pile); an Offsets arrival
// waits for a slot (a schedule replay must deliver every request).
// Workers must be positive.
type Shape struct {
	Workers int
	Rate    float64
	Offsets []time.Duration
	// For bounds the run: no request (closed loop) or arrival (paced)
	// starts after it. Zero leaves the run unbounded.
	For time.Duration
	// N is the number of bodies. Request seq issues body seq, and the
	// closed loop stops after N — unless Draw, when every request draws
	// its body uniformly from [0, N): a closed-loop worker w from a
	// stream seeded w+101, the pacer from one stream seeded openSeed in
	// arrival order.
	N    int
	Draw bool
}

// Drive issues requests in the given shape — issue(i) sends body i —
// and returns the run's summary. A run without Draw, at most N requests,
// also returns every outcome in issue order; a Draw run, bounded only by
// For, keeps none.
func Drive(sh Shape, issue func(i int) Outcome) (Summary, []Outcome) {
	var (
		mu   sync.Mutex
		s    Summary
		outs []Outcome
		wg   sync.WaitGroup
	)
	if !sh.Draw {
		outs = make([]Outcome, 0, sh.N)
	}
	record := func(seq int, o Outcome) {
		mu.Lock()
		defer mu.Unlock()
		s.add(o)
		if sh.Draw {
			return
		}
		if seq >= len(outs) {
			outs = append(outs, make([]Outcome, seq+1-len(outs))...)
		}
		outs[seq] = o
	}
	start := time.Now()
	if sh.Rate == 0 && sh.Offsets == nil {
		var next atomic.Int64
		for w := 0; w < sh.Workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for sh.For == 0 || time.Since(start) < sh.For {
					seq := int(next.Add(1) - 1)
					i := seq
					if sh.Draw {
						i = rng.Intn(sh.N)
					} else if seq >= sh.N {
						return
					}
					record(seq, issue(i))
				}
			}(rand.New(rand.NewSource(int64(w) + 101)))
		}
		wg.Wait()
		return s, outs
	}

	var p pacer = newUniformPacer(sh.Rate)
	if sh.Offsets != nil {
		p = &schedulePacer{offsets: sh.Offsets}
	}
	horizon := sh.For
	if horizon == 0 {
		horizon = 1 << 62
	}
	rng := rand.New(rand.NewSource(openSeed))
	sem := make(chan struct{}, 4*sh.Workers)
	paceLoop(p, horizon, func(seq int) {
		i := seq
		if sh.Draw {
			i = rng.Intn(sh.N)
		}
		if sh.Offsets != nil {
			sem <- struct{}{}
		} else {
			select {
			case sem <- struct{}{}:
			default:
				record(seq, Outcome{Err: fmt.Errorf(overloadFmt, cap(sem))})
				return
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			record(seq, issue(i))
		}()
	})
	wg.Wait()
	return s, outs
}

// Summary is a driven run's one accounting. Every outcome with an error
// — a transport or decode failure, a non-200 status, a dropped arrival —
// counts as an error; only successes contribute latency and the batched
// and fast counts.
type Summary struct {
	OK, Errors    int
	FirstErr      error
	Batched, Fast int
	// Latencies holds each success's latency in milliseconds, in
	// completion order.
	Latencies []float64
}

// add tallies one outcome.
func (s *Summary) add(o Outcome) {
	if o.Err != nil {
		s.Errors++
		if s.FirstErr == nil {
			s.FirstErr = o.Err
		}
		return
	}
	s.OK++
	s.Latencies = append(s.Latencies, float64(o.Latency)/float64(time.Millisecond))
	if o.Resp.Batch > 1 {
		s.Batched++
	}
	if o.Resp.Fast {
		s.Fast++
	}
}

// --- record and replay --------------------------------------------------------

// Served attaches to each play the outcome it received: the records of
// a served trace.
func Served(plays []Record, outs []Outcome) []Record {
	recs := make([]Record, len(plays))
	for i, p := range plays {
		p.HasResp, p.Status, p.Resp = true, outs[i].Status, outs[i].Resp
		recs[i] = p
	}
	return recs
}

// WriteServed writes plays and the outcomes they received as a served
// trace, so the run can be replayed and verified later.
func WriteServed(w io.Writer, hdr TraceHeader, plays []Record, outs []Outcome) error {
	hdr.Served = true
	tw, err := NewTraceWriter(w, hdr)
	if err != nil {
		return err
	}
	for _, rec := range Served(plays, outs) {
		if err := tw.Write(&rec); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// VerifyReplay holds a replayed run against its recording, record by
// record; a record without a response (an unserved schedule) is skipped.
// The status must match exactly and, for a 200, the answer must decode
// and its value bits and degraded verdict match — except that where the
// fast-path verdict flipped
// between record and replay (admission timing) the value may differ by
// the surface's interpolation bound, 1e-3 relative. Each divergence is
// counted in the replay-mismatch series and handed to report, which may
// be nil. It returns the number of divergences.
func VerifyReplay(recorded []Record, replayed []Outcome, report func(i int, err error)) int {
	n := 0
	for i, r := range recorded {
		if !r.HasResp {
			continue
		}
		if err := diverges(r, replayed[i]); err != nil {
			n++
			mReplayDiffs.Inc()
			if report != nil {
				report(i, err)
			}
		}
	}
	return n
}

func diverges(r Record, o Outcome) error {
	want, got := r.Resp, o.Resp
	switch {
	case o.Status != r.Status:
		return fmt.Errorf("status %d, recorded %d", o.Status, r.Status)
	case r.Status != http.StatusOK:
		return nil
	case o.Err != nil:
		return o.Err
	case got.Degraded != want.Degraded:
		return fmt.Errorf("degraded=%v, recorded degraded=%v", got.Degraded, want.Degraded)
	case got.Fast == want.Fast:
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			return fmt.Errorf("value %x, recorded %x", math.Float64bits(got.Value), math.Float64bits(want.Value))
		}
	default:
		if rel := math.Abs(got.Value-want.Value) / math.Max(math.Abs(want.Value), 1e-12); rel > 1e-3 {
			return fmt.Errorf("fast-flip value %v vs recorded %v (rel %.2g > 1e-3)", got.Value, want.Value, rel)
		}
	}
	return nil
}
