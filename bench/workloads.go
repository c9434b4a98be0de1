package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"contention/internal/cluster"
	"contention/internal/core"
	"contention/internal/experiments"
	"contention/internal/runner"
	"contention/internal/serve"
	"contention/internal/surface"
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name string
	Why  string
	// setup builds the workload's fixture from the seed: predictor,
	// surface, listeners, corpus and reference answers. tr is nil in an
	// untraced run; a traced run's fixture adds the benchmark's span
	// wrapper around the handlers it owns.
	setup func(seed int64, tr *recorder) (*fixture, error)
}

// fixture is a workload ready to run.
type fixture struct {
	op      opFunc
	clients int
	close   func()
	// layer names the span around the workload's innermost call into
	// the program (bench.span_layer_us).
	layer string
	// flags tallies the response flags of a serving workload (nil
	// otherwise).
	flags func() flagCounts
	// modelErrPct, for paper_suite, is the mean model error every one
	// of its passes reproduced (0: not a paper-suite fixture).
	modelErrPct float64
}

// flagCounts tallies the answers of a serving workload by path.
type flagCounts struct{ n, fast, batched, degraded int64 }

var workloads = []workloadDef{
	{
		Name:  "serve_fast_bin",
		Why:   "tuned replica (surface + FastPath), binary wire, surface-resident mixes: net/http, codec and admission do the work, prob/memo/batcher none",
		setup: setupServeFastBin,
	},
	{
		Name:  "serve_default_json",
		Why:   "out-of-the-box contentiond (1 ms batch window, no surface), JSON wire, 12 reused mixes: priced by the batcher window, JSON decode and the goroutine hand-off",
		setup: setupServeDefaultJSON,
	},
	{
		Name:  "lib_cold_sweep",
		Why:   "in-process core.Predictor, 64-placement sweeps of never-seen heterogeneous mixes: prob DP, key canonicalisation and memo insert do all the work, no serving code runs",
		setup: setupLibColdSweep,
	},
	{
		Name:  "fleet_json",
		Why:   "cluster router over 2 in-process replicas, JSON wire, same corpus as serve_default_json: adds affinity decode, ring lookup, breaker bookkeeping and the pooled HTTP hop",
		setup: setupFleetJSON,
	},
	{
		Name:  "paper_suite",
		Why:   "one op is a full experiments.All pass (tables 1-4, figures 1-8): the DES and the platform models do the work, the serving stack none; output hash and model error must not move",
		setup: setupPaperSuite,
	},
}

// defaultClients is the closed-loop sizing rule: callers of a
// prediction service wait for the reply before the next query, and two
// of them keep both cores of the reference machine busy without
// building a queue. One core gets one client.
func defaultClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// --- HTTP workloads -------------------------------------------------------------

// listen serves h on a loopback port until stop, which returns after
// the server's goroutine has ended.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String() + "/v1/predict", func() { _ = hs.Close(); <-done }, nil
}

// httpClient is one closed-loop client's private state; each lives in
// its own allocation so the tallies do not share a cache line.
type httpClient struct {
	buf   [4096]byte
	flags flagCounts
}

// httpWorkload posts pre-encoded bodies over loopback HTTP and checks
// every answer against its reference.
type httpWorkload struct {
	url         string
	contentType string
	reqs        []wireRequest
	client      *http.Client
	clients     []*httpClient
}

func newHTTPWorkload(url, contentType string, reqs []wireRequest, clients int) *httpWorkload {
	w := &httpWorkload{
		url: url, contentType: contentType, reqs: reqs,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
	}
	for i := 0; i < clients; i++ {
		w.clients = append(w.clients, &httpClient{})
	}
	return w
}

var errBodyTooLarge = errors.New("response larger than the client buffer")

// readBody reads r to EOF into buf (so the connection can be reused).
func readBody(r io.Reader, buf []byte) (int, error) {
	n := 0
	for {
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if n == len(buf) {
			return n, errBodyTooLarge
		}
	}
}

func (w *httpWorkload) op(c, seq int, tr *recorder) bool {
	cl := w.clients[c]
	wr := &w.reqs[(seq*len(w.clients)+c)%len(w.reqs)]
	id := uint64(c+1)<<40 | uint64(seq)
	root := tr.begin(0, id, "bench.op")
	defer root.end()

	hr, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(wr.body))
	if err != nil {
		return false
	}
	hr.Header.Set("Content-Type", w.contentType)
	rt := tr.begin(root.id, id, "loopback.roundtrip")
	if h := rt.header(); h != "" {
		hr.Header.Set(spanHeader, h)
	}
	resp, err := w.client.Do(hr)
	if err != nil {
		rt.end()
		return false
	}
	n, err := readBody(resp.Body, cl.buf[:])
	resp.Body.Close()
	rt.end()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}

	dec := tr.begin(root.id, id, "serve.decode_response")
	var out serve.Response
	if w.contentType == serve.ContentTypeBinary {
		out, err = serve.DecodeBinaryResponse(cl.buf[:n])
	} else {
		err = json.Unmarshal(cl.buf[:n], &out)
	}
	dec.end()
	if err != nil {
		return false
	}
	cl.flags.n++
	if out.Fast {
		cl.flags.fast++
	}
	if out.Batch > 1 {
		cl.flags.batched++
	}
	if out.Degraded {
		cl.flags.degraded++
	}
	return sameAnswer(out.Value, wr.ref, wr.tol)
}

// flags sums the clients' tallies; call it only while no client runs.
func (w *httpWorkload) flags() flagCounts {
	var t flagCounts
	for _, c := range w.clients {
		t.n += c.flags.n
		t.fast += c.flags.fast
		t.batched += c.flags.batched
		t.degraded += c.flags.degraded
	}
	return t
}

func (w *httpWorkload) fixture(layer string, stop func()) *fixture {
	return &fixture{
		op: w.op, clients: len(w.clients), layer: layer, flags: w.flags,
		close: func() {
			w.client.CloseIdleConnections()
			stop()
		},
	}
}

// serveFixture is the single-replica shape cmd/loadgen and contentiond
// build: one serve.Server with a worker pool over the synthetic
// calibration (what contentiond serves when given no stored artifact)
// on a loopback port. tuned attaches the default precomputed surface
// and turns the batcher bypass on.
func serveFixture(reqs []wireRequest, contentType string, tuned bool, tr *recorder) (*fixture, error) {
	if err := encode(reqs, contentType == serve.ContentTypeBinary); err != nil {
		return nil, err
	}
	pred, err := core.NewPredictor(serve.SyntheticCalibration())
	if err != nil {
		return nil, err
	}
	if tuned {
		s, err := surface.Build(pred.Calibration().Tables, surface.Config{})
		if err != nil {
			return nil, err
		}
		if err := pred.AttachSurface(s); err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(serve.Config{Pred: pred, Pool: runner.New(0), FastPath: tuned})
	if err != nil {
		return nil, err
	}
	url, stop, err := listen(tr.wrap("serve.handler", srv.Handler()))
	if err != nil {
		srv.Close()
		return nil, err
	}
	w := newHTTPWorkload(url, contentType, reqs, defaultClients())
	return w.fixture("serve.handler", func() { stop(); srv.Close() }), nil
}

const contentTypeJSON = "application/json"

func setupServeFastBin(seed int64, tr *recorder) (*fixture, error) {
	return serveFixture(fastBinCorpus(seed), serve.ContentTypeBinary, true, tr)
}

func setupServeDefaultJSON(seed int64, tr *recorder) (*fixture, error) {
	return serveFixture(jsonCorpus(seed), contentTypeJSON, false, tr)
}

// startFleet starts the default fleet — two in-process replicas behind
// the cluster router, as cmd/loadgen -cluster 2 builds it — and returns
// it with its shutdown.
func startFleet() (*cluster.Cluster, func(), error) {
	c, err := cluster.New(cluster.Config{
		Replicas: 2,
		Factory:  cluster.InProcessFactory(cluster.InProcConfig{}),
	})
	if err != nil {
		return nil, nil, err
	}
	if err := c.Start(); err != nil {
		return nil, nil, err
	}
	return c, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx) // a fleet that will not drain in 10 s is abandoned
	}, nil
}

func setupFleetJSON(seed int64, tr *recorder) (*fixture, error) {
	reqs := jsonCorpus(seed)
	if err := encode(reqs, false); err != nil {
		return nil, err
	}
	c, shutdown, err := startFleet()
	if err != nil {
		return nil, err
	}
	url, stop, err := listen(tr.wrap("cluster.handler", c.Handler()))
	if err != nil {
		shutdown()
		return nil, err
	}
	w := newHTTPWorkload(url, contentTypeJSON, reqs, defaultClients())
	return w.fixture("cluster.handler", func() { stop(); shutdown() }), nil
}

// --- lib_cold_sweep ---------------------------------------------------------------

// libWorkload prices never-seen keys on one shared predictor, replaced
// every epochOps operations — a recalibration epoch, which also bounds
// the (otherwise unbounded) memo.
type libWorkload struct {
	cal     core.Calibration
	keys    []libKey
	clients int

	mu    sync.Mutex
	epoch int
	pred  *core.Predictor
}

// predictor returns the predictor of the epoch, building it on the
// epoch's first use.
func (w *libWorkload) predictor(epoch int) (*core.Predictor, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pred == nil || epoch > w.epoch {
		p, err := core.NewPredictor(w.cal)
		if err != nil {
			return nil, err
		}
		w.pred, w.epoch = p, epoch
	}
	return w.pred, nil
}

func (w *libWorkload) op(c, seq int, tr *recorder) bool {
	n := seq*w.clients + c // the run's n-th sweep
	pred, err := w.predictor(n / epochOps)
	if err != nil {
		return false
	}
	keys := w.keys[n%epochOps*sweepKeys:][:sweepKeys]
	id := uint64(c+1)<<40 | uint64(seq)
	root := tr.begin(0, id, "bench.op")
	good := true
	for i := range keys {
		sp := tr.begin(root.id, id, "core.predict")
		v, err := keys[i].predict(pred)
		sp.end()
		if err != nil || !sameAnswer(v, keys[i].ref, 0) {
			good = false
		}
	}
	root.end()
	return good
}

func setupLibColdSweep(seed int64, _ *recorder) (*fixture, error) {
	w := &libWorkload{
		cal:     serve.SyntheticCalibration(),
		keys:    libCorpus(seed, epochOps*sweepKeys),
		clients: defaultClients(),
	}
	ref, err := core.NewPredictor(w.cal)
	if err != nil {
		return nil, err
	}
	for i := range w.keys {
		if w.keys[i].ref, err = w.keys[i].predict(ref); err != nil {
			return nil, err
		}
	}
	return &fixture{op: w.op, clients: w.clients, layer: "core.predict", close: func() {}}, nil
}

// --- paper_suite ------------------------------------------------------------------

// suitePass runs every exhibit of the paper once and returns the
// SHA-256 of the concatenated renderings and the mean of every
// ModelErrPct label.
func suitePass(env *experiments.Env) (hash [sha256.Size]byte, meanErrPct float64, err error) {
	results, err := experiments.All(env)
	if err != nil {
		return hash, 0, err
	}
	h := sha256.New()
	n, sum := 0, 0.0
	for _, r := range results {
		io.WriteString(h, r.Render())
		labels := make([]string, 0, len(r.ModelErrPct))
		for label := range r.ModelErrPct {
			labels = append(labels, label)
		}
		sort.Strings(labels) // a fixed summation order: the mean must repeat to the last bit
		for _, label := range labels {
			n++
			sum += r.ModelErrPct[label]
		}
	}
	if n == 0 {
		return hash, 0, errors.New("paper suite reported no model error")
	}
	copy(hash[:], h.Sum(nil))
	return hash, sum / float64(n), nil
}

// newSuiteEnv calibrates both platforms and fans the exhibits' sweep
// points out on every core, as cmd/experiments does.
func newSuiteEnv() (*experiments.Env, error) {
	env, err := experiments.NewEnv()
	if err != nil {
		return nil, err
	}
	env.Pool = runner.New(0)
	return env, nil
}

// maxModelErrPct is the paper's claim: the model's average error stays
// within 15%.
const maxModelErrPct = 15

func setupPaperSuite(int64, *recorder) (*fixture, error) {
	env, err := newSuiteEnv()
	if err != nil {
		return nil, err
	}
	refHash, refErr, err := suitePass(env)
	if err != nil {
		return nil, err
	}
	if refErr > maxModelErrPct {
		return nil, fmt.Errorf("mean model error %.2f%% exceeds the paper's %d%%", refErr, maxModelErrPct)
	}
	op := func(c, seq int, tr *recorder) bool {
		id := uint64(c+1)<<40 | uint64(seq)
		root := tr.begin(0, id, "bench.op")
		sp := tr.begin(root.id, id, "experiments.all")
		hash, errPct, err := suitePass(env)
		sp.end()
		root.end()
		return err == nil && hash == refHash && errPct == refErr
	}
	// One client: a pass already spreads its sweep points over every
	// core through the runner pool.
	return &fixture{
		op: op, clients: 1, layer: "experiments.all", close: func() {},
		modelErrPct: refErr,
	}, nil
}
