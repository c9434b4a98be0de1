package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"time"

	"contention/internal/calibrate"
	"contention/internal/core"
	"contention/internal/experiments"
	"contention/internal/obs"
	"contention/internal/platform"
	"contention/internal/prob"
	"contention/internal/rm"
	"contention/internal/runner"
	"contention/internal/scenario"
	"contention/internal/serve"
	"contention/internal/surface"
)

// The ladder times each layer's exported functions on a fixed count of
// inputs drawn the way the workload corpora are, one rung per layer a
// request crosses: prob DP → core miss/hit → surface → codec →
// serve.Direct → handler → loopback → cluster hop. It does not depend
// on the workload being run.

// cost is what one call of a rung costs.
type cost struct{ ns, allocs float64 }

// rung is one line of the -ladder view; base indexes the rung its
// marginal cost is taken over (-1: none).
type rung struct {
	name string
	cost
	base int
}

// ladder is the result of one pass.
type ladder struct {
	metrics map[string]float64
	rungs   []rung
	// The reconciliation of the -ladder view, all per request on the
	// serve_fast_bin shape: Σ serve stage histograms and the handler
	// (both timed with obs on), and the loopback p50 over the same
	// server and over a constant-body handler.
	stagesUs, handlerObsUs, loopbackBinUs, nullUs float64
}

// timedBatches is the number of batches timed makes.
const timedBatches = 5

// timed runs fn n times in each of five batches and returns the median
// batch's mean ns per call and the process's mallocs per call.
func timed(n int, fn func(i int)) cost {
	const batches = timedBatches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	means := make([]float64, batches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		means[b] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return cost{ns: median(means), allocs: float64(ms.Mallocs-m0) / float64(batches*n)}
}

// once times a single call in ms.
func once(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return float64(time.Since(t0)) / float64(time.Millisecond), err
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink float64

// discardWriter is the cheapest http.ResponseWriter: it keeps the last
// body and allocates nothing itself, so a handler's allocations are its
// own.
type discardWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// handlerCall invokes h in-process with pre-encoded bodies, reusing one
// request and one writer.
type handlerCall struct {
	h    http.Handler
	req  *http.Request
	body bodyReader
	w    discardWriter
}

func newHandlerCall(h http.Handler, contentType string) (*handlerCall, error) {
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	hc := &handlerCall{h: h, req: req, w: discardWriter{h: http.Header{}}}
	req.Body = &hc.body
	return hc, nil
}

func (hc *handlerCall) do(body []byte) bool {
	hc.body.Reset(body)
	hc.req.ContentLength = int64(len(body))
	clear(hc.w.h)
	hc.w.status = http.StatusOK
	hc.h.ServeHTTP(&hc.w, hc.req)
	return hc.w.status == http.StatusOK
}

// loopbackP50 drives w's single client sequentially n times and returns
// the median latency in µs and the process's mallocs per request.
func loopbackP50(w *httpWorkload, n int) (p50us, allocs float64, err error) {
	for i := 0; i < n/10+1; i++ { // connection set-up and lazy init
		w.op(0, i, nil)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	lat := make([]float64, n)
	for i := range lat {
		t0 := time.Now()
		if !w.op(0, i, nil) {
			return 0, 0, fmt.Errorf("ladder: loopback request %d to %s failed", i, w.url)
		}
		lat[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	runtime.ReadMemStats(&ms)
	return median(lat), float64(ms.Mallocs-m0) / float64(n), nil
}

// obsDelta reads what moved in the process-wide obs registry between
// two snapshots.
type obsDelta struct{ before, after obs.Snapshot }

func (d obsDelta) counter(name string) float64 {
	return float64(d.after.Counter(name) - d.before.Counter(name))
}

// histogram returns the sum (seconds) and count a histogram gained.
func (d obsDelta) histogram(name string) (sum float64, count int64) {
	a, _ := d.after.Find(name)
	b, _ := d.before.Find(name)
	return a.Sum - b.Sum, a.Count - b.Count
}

// meanUs is the mean of a histogram's new observations in µs, over per
// when per > 0 (a stage some requests skip) or over its own count.
func (d obsDelta) meanUs(name string, per int64) float64 {
	sum, count := d.histogram(name)
	if per <= 0 {
		per = count
	}
	if per == 0 {
		return 0
	}
	return sum * 1e6 / float64(per)
}

var serveStages = []string{"decode", "admission", "batch-wait", "compute", "surface", "encode"}

func serveStage(stage string) string { return obs.Label(obs.MetricServeStageSeconds, "stage", stage) }

// serveStagesUs is Σ serve stage histograms per request, in µs.
func (d obsDelta) serveStagesUs(requests int64) float64 {
	total := 0.0
	for _, st := range serveStages {
		total += d.meanUs(serveStage(st), requests)
	}
	return total
}

// pass is one ladder pass in progress.
type pass struct {
	*ladder
	seed  int64
	scale int
}

// n scales an iteration count.
func (p *pass) n(count int) int { return max(count/p.scale, 2) }

// add appends a rung and returns its index.
func (p *pass) add(name string, c cost, base int) int {
	p.rungs = append(p.rungs, rung{name: name, cost: c, base: base})
	return len(p.rungs) - 1
}

// runLadder makes one pass. scale divides the iteration counts (1 for a
// real run, more for the smoke test).
func runLadder(seed int64, scale int) (*ladder, error) {
	p := &pass{ladder: &ladder{metrics: map[string]float64{}}, seed: seed, scale: scale}
	for _, part := range []func() error{p.model, p.serving, p.suite} {
		if err := part(); err != nil {
			return nil, err
		}
	}
	return p.ladder, nil
}

// model times prob and core: the DP, the uncached mixture, memo miss
// and hit, the fast-path probe, and the memo's footprint.
func (p *pass) model() error {
	m, n := p.metrics, p.n
	rng := corpusRNG(p.seed, saltLadder)
	var dist []float64
	var rDP int
	for _, k := range []int{4, 8, 16, 64} {
		qs := make([]float64, k)
		for i := range qs {
			qs[i] = rng.Float64() * 0.8
		}
		c := timed(n(20000), func(int) {
			dist, _ = prob.AppendDistribution(dist[:0], qs) // qs are valid probabilities
			sink += dist[0]
		})
		if k == 8 {
			rDP = p.add("prob.AppendDistribution p=8", c, -1)
		} else {
			m[fmt.Sprintf("prob.dist_p%d_ns", k)] = c.ns
		}
	}
	qs16 := make([]float64, 16)
	for i := range qs16 {
		qs16[i] = rng.Float64() * 0.8
	}
	calc, err := prob.New(qs16...)
	if err != nil {
		return err
	}
	m["prob.add_remove_ns"] = timed(n(20000), func(int) {
		if calc.Add(0.3) == nil {
			_ = calc.Remove(calc.N() - 1) // the index just added
		}
	}).ns

	cal := serve.SyntheticCalibration()
	missN := n(20000)
	keys := make([][]core.Contender, 5*missN)
	for i := range keys {
		keys[i] = randomContenders(rng, 8)
	}
	sets := []core.DataSet{{N: 10, Words: 512}}
	c := timed(missN, func(i int) {
		s, _ := core.CommSlowdown(keys[i], cal.Tables) // keys are valid by construction
		sink += s
	})
	m["core.slowdown_uncached_p8_ns"] = c.ns
	rUncached := p.add("core.CommSlowdown p=8 (no memo)", c, rDP)

	pred, err := core.NewPredictor(cal)
	if err != nil {
		return err
	}
	c = timed(missN, func(i int) {
		v, _ := pred.PredictComm(core.HostToBack, sets, keys[i])
		sink += v
	})
	m["core.predict_miss_p8_ns"] = c.ns
	rMiss := p.add("core.PredictComm p=8 memo miss", c, rUncached)
	c = timed(n(50000), func(int) {
		v, _ := pred.PredictComm(core.HostToBack, sets, keys[0])
		sink += v
	})
	m["core.predict_hit_p8_ns"], m["core.predict_hit_allocs"] = c.ns, c.allocs
	p.add("core.PredictComm p=8 memo hit", c, rMiss)
	m["core.try_predict_ns"] = timed(n(50000), func(int) {
		v, _ := pred.TryPredictComm(core.HostToBack, sets, keys[0])
		sink += v
	}).ns
	m["core.new_predictor_us"] = timed(n(2000), func(int) {
		q, _ := core.NewPredictor(cal)
		sink += float64(q.TablesChecksum() & 1)
	}).ns / 1e3

	// The memo's footprint: live heap gained per inserted key.
	fresh, err := core.NewPredictor(cal)
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	h0 := ms.HeapAlloc
	for _, k := range keys {
		v, _ := fresh.PredictComm(core.HostToBack, sets, k)
		sink += v
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m["core.memo_bytes_per_key"] = (float64(ms.HeapAlloc) - float64(h0)) / float64(len(keys))
	runtime.KeepAlive(fresh)
	runtime.KeepAlive(keys) // or the second collection frees them and hides the memo's growth
	return nil
}

// serving times what a served request crosses: surface, codecs,
// serve.Direct, the handlers in process, admission, loopback HTTP and
// the cluster hop.
func (p *pass) serving() error {
	m, n := p.metrics, p.n
	rng := corpusRNG(p.seed, saltServing)
	cal := serve.SyntheticCalibration()
	var surf *surface.Surface
	var err error
	if m["surface.build_ms"], err = once(func() (err error) {
		surf, err = surface.Build(cal.Tables, surface.Config{})
		return err
	}); err != nil {
		return err
	}
	c := timed(n(200000), func(i int) {
		v, _ := surf.Comm(i%17, float64(i%surfaceCells)/surfaceCells)
		sink += v
	})
	m["surface.comm_ongrid_ns"] = c.ns
	rSurf := p.add("surface.Comm on grid", c, -1)
	m["surface.comm_offgrid_ns"] = timed(n(200000), func(i int) {
		v, _ := surf.Comm(i%17, (float64(i%surfaceCells)+0.37)/surfaceCells)
		sink += v
	}).ns

	fastReqs := fastBinCorpus(p.seed)
	if err := encode(fastReqs, true); err != nil {
		return err
	}
	jsonReqs := jsonCorpus(p.seed)
	if err := encode(jsonReqs, false); err != nil {
		return err
	}
	var buf []byte
	m["serve.bin_req_encode_ns"] = timed(n(20000), func(i int) {
		buf, _ = serve.AppendBinaryRequest(buf[:0], &fastReqs[i%corpusSize].req)
	}).ns
	c = timed(n(20000), func(i int) {
		r, _ := serve.DecodeBinaryRequest(fastReqs[i%corpusSize].body)
		sink += float64(len(r.Contenders))
	})
	m["serve.bin_req_decode_ns"] = c.ns
	rCodec := p.add("serve.DecodeBinaryRequest", c, rSurf)
	m["serve.json_req_decode_ns"] = timed(n(10000), func(i int) {
		r, _ := serve.DecodeRequest(bytes.NewReader(jsonReqs[i%corpusSize].body))
		sink += float64(len(r.Contenders))
	}).ns

	fastPred, err := core.NewPredictor(cal)
	if err != nil {
		return err
	}
	if err := fastPred.AttachSurface(surf); err != nil {
		return err
	}
	c = timed(n(50000), func(i int) {
		r, _ := serve.Direct(fastPred, &fastReqs[i%corpusSize].req, true)
		sink += r.Value
	})
	m["serve.direct_fast_ns"] = c.ns
	rDirect := p.add("serve.Direct surface-resident", c, rCodec)
	coldReqs := make([]serve.Request, 5*n(5000))
	for i := range coldReqs {
		cs := make([]serve.ContenderSpec, 8)
		for k := range cs {
			cs[k] = serve.ContenderSpec{CommFraction: rng.Float64() * 0.8, MsgWords: rng.Intn(2000)}
		}
		coldReqs[i].Contenders = cs
		randomKind(rng, &coldReqs[i])
	}
	m["serve.direct_dp_ns"] = timed(n(5000), func(i int) {
		r, _ := serve.Direct(fastPred, &coldReqs[i], false)
		sink += r.Value
	}).ns

	// The handlers, called in process. A call that does not answer 200
	// fails the pass.
	failed := 0
	handle := func(hc *handlerCall, reqs []wireRequest) func(int) {
		return func(i int) {
			if !hc.do(reqs[i%corpusSize].body) {
				failed++
			}
		}
	}
	fastSrv, err := serve.New(serve.Config{Pred: fastPred, Pool: runner.New(0), FastPath: true})
	if err != nil {
		return err
	}
	defer fastSrv.Close()
	fastCall, err := newHandlerCall(fastSrv.Handler(), serve.ContentTypeBinary)
	if err != nil {
		return err
	}
	handlerBin := timed(n(50000), handle(fastCall, fastReqs))
	m["serve.handler_bin_fast_ns"], m["serve.handler_bin_fast_allocs"] = handlerBin.ns, handlerBin.allocs
	rHandler := p.add("serve handler, binary fast path", handlerBin, rDirect)
	fastCall.do(fastReqs[0].body)
	respBytes := append([]byte(nil), fastCall.w.body...) // the served answer to fastReqs[0]
	m["serve.bin_resp_decode_ns"] = timed(n(50000), func(int) {
		r, _ := serve.DecodeBinaryResponse(respBytes)
		sink += r.Value
	}).ns

	// The same loop with the stage histograms recording: what the
	// server's own attribution leaves unexplained.
	obs.SetEnabled(true)
	d := obsDelta{before: obs.Default().Snapshot()}
	perBatch := n(10000)
	c = timed(perBatch, handle(fastCall, fastReqs))
	d.after = obs.Default().Snapshot()
	obs.SetEnabled(false)
	p.handlerObsUs = c.ns / 1e3
	p.stagesUs = d.serveStagesUs(int64(timedBatches * perBatch))
	m["serve.unattributed_share"] = 1 - p.stagesUs/p.handlerObsUs

	jsonPred, err := core.NewPredictor(cal)
	if err != nil {
		return err
	}
	jsonSrv, err := serve.New(serve.Config{Pred: jsonPred, Pool: runner.New(0)})
	if err != nil {
		return err
	}
	defer jsonSrv.Close()
	jsonCall, err := newHandlerCall(jsonSrv.Handler(), contentTypeJSON)
	if err != nil {
		return err
	}
	// Every call waits out the 1 ms batch window, so the count is small.
	handlerJSON := timed(n(200), handle(jsonCall, jsonReqs))
	m["serve.handler_json_ns"], m["serve.handler_json_allocs"] = handlerJSON.ns, handlerJSON.allocs

	// rm: the admission pair the fast path takes.
	adm := rm.NewAdmission(serve.DefaultMaxInFlight, serve.DefaultMaxQueue)
	m["rm.admission_pair_ns"] = timed(n(200000), func(int) {
		if adm.TryAcquire() {
			adm.Release()
		}
	}).ns

	// loopback: the workloads' own client loop, one client, against a
	// constant-body handler, the fast server and the default server.
	loopback := func(h http.Handler, contentType string, reqs []wireRequest, count int) (p50us, allocs float64, err error) {
		url, stop, err := listen(h)
		if err != nil {
			return 0, 0, err
		}
		w := newHTTPWorkload(url, contentType, reqs, 1)
		defer w.fixture("", stop).close()
		return loopbackP50(w, count)
	}
	null := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", serve.ContentTypeBinary)
		_, _ = w.Write(respBytes)
	})
	if p.nullUs, _, err = loopback(null, serve.ContentTypeBinary, fastReqs[:1], n(3000)); err != nil {
		return err
	}
	m["loopback.null_handler_us"] = p.nullUs
	var binAllocs float64
	if p.loopbackBinUs, binAllocs, err = loopback(fastSrv.Handler(), serve.ContentTypeBinary, fastReqs, n(3000)); err != nil {
		return err
	}
	m["loopback.overhead_bin_us"] = p.loopbackBinUs - handlerBin.ns/1e3
	m["loopback.client_allocs_per_op"] = binAllocs - handlerBin.allocs
	p.add("loopback HTTP, binary fast path (p50)", cost{ns: p.loopbackBinUs * 1e3, allocs: binAllocs}, rHandler)

	rJSON := p.add("serve handler, JSON batched", handlerJSON, -1)
	loopJSONUs, jsonAllocs, err := loopback(jsonSrv.Handler(), contentTypeJSON, jsonReqs, n(300))
	if err != nil {
		return err
	}
	m["loopback.overhead_json_us"] = loopJSONUs - handlerJSON.ns/1e3
	p.add("loopback HTTP, JSON batched (p50)", cost{ns: loopJSONUs * 1e3, allocs: jsonAllocs}, rJSON)

	// cluster: the router's handler in process over two replicas.
	fleet, shutdown, err := startFleet()
	if err != nil {
		return err
	}
	defer shutdown()
	clusterCall, err := newHandlerCall(fleet.Handler(), contentTypeJSON)
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ { // pooled connections to both replicas
		clusterCall.do(jsonReqs[i].body)
	}
	c = timed(n(200), handle(clusterCall, jsonReqs))
	m["cluster.handler_json_ns"], m["cluster.handler_allocs"] = c.ns, c.allocs
	m["cluster.hop_overhead_us"] = (c.ns - handlerJSON.ns) / 1e3
	p.add("cluster handler, JSON, 2 replicas", c, rJSON)
	if failed > 0 {
		return fmt.Errorf("ladder: %d handler calls did not answer 200", failed)
	}
	return nil
}

// suite times what the fixtures and a paper_suite pass are made of:
// scenario generation, the two calibrations, each exhibit, and the
// runner's per-item overhead.
func (p *pass) suite() error {
	m, n := p.metrics, p.n
	mixed, err := scenario.Builtin("mixed")
	if err != nil {
		return err
	}
	var items []scenario.Item
	if m["scenario.schedule_mixed_ms"], err = once(func() (err error) {
		items, err = mixed.Schedule(p.seed, 60*time.Second)
		return err
	}); err != nil {
		return err
	}
	m["scenario.encode_item_ns"] = timed(n(20000), func(i int) {
		b, _ := scenario.EncodeItem(items[i%len(items)], scenario.FormatBinary)
		sink += float64(len(b))
	}).ns

	if m["calibrate.paragon_ms"], err = once(func() error {
		_, err := calibrate.Run(calibrate.DefaultOptions(platform.DefaultParagonParams(platform.OneHop)))
		return err
	}); err != nil {
		return err
	}
	if m["calibrate.cm2_ms"], err = once(func() error {
		_, err := calibrate.CalibrateCM2(calibrate.DefaultCM2Options(platform.DefaultCM2Params()))
		return err
	}); err != nil {
		return err
	}
	env, err := newSuiteEnv()
	if err != nil {
		return err
	}
	withEnv := func(f func(*experiments.Env) (experiments.Result, error)) func() (experiments.Result, error) {
		return func() (experiments.Result, error) { return f(env) }
	}
	exhibits := []struct {
		name string
		run  func() (experiments.Result, error)
	}{
		{"table12", experiments.Tables12}, {"table3", experiments.Table3}, {"table4", experiments.Table4},
		{"figure1", withEnv(experiments.Figure1)}, {"figure2", withEnv(experiments.Figure2)},
		{"figure3", withEnv(experiments.Figure3)}, {"figure4", withEnv(experiments.Figure4)},
		{"figure5", withEnv(experiments.Figure5)}, {"figure6", withEnv(experiments.Figure6)},
		{"figure7", withEnv(experiments.Figure7)}, {"figure8", withEnv(experiments.Figure8)},
	}
	for _, e := range exhibits {
		if m["experiments."+e.name+"_ms"], err = once(func() error {
			_, err := e.run()
			return err
		}); err != nil {
			return err
		}
	}
	noop := make([]struct{}, n(20000))
	mapMs, err := once(func() error {
		_, err := runner.Map(context.Background(), env.Pool, noop,
			func(context.Context, int, struct{}) (struct{}, error) { return struct{}{}, nil })
		return err
	})
	if err != nil {
		return err
	}
	m["runner.map_item_overhead_ns"] = mapMs * 1e6 / float64(len(noop))
	return nil
}

// print writes the -ladder view: each rung's cost, its marginal cost
// over the rung below, and the reconciliation line.
func (l *ladder) print(w io.Writer) {
	fmt.Fprintf(w, "%-44s %12s %8s %14s %9s\n", "rung", "ns/op", "allocs", "marginal ns", "allocs")
	for _, r := range l.rungs {
		fmt.Fprintf(w, "%-44s %12.1f %8.2f", r.name, r.ns, r.allocs)
		if r.base >= 0 {
			b := l.rungs[r.base]
			fmt.Fprintf(w, " %+14.1f %+9.2f   over %s", r.ns-b.ns, r.allocs-b.allocs, b.name)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nreconciliation (serve_fast_bin shape, µs per request): Σ serve.stage_* %.2f ≈ handler %.2f ≈ loopback p50 %.2f − loopback.null_handler_us %.2f = %.2f\n",
		l.stagesUs, l.handlerObsUs, l.loopbackBinUs, l.nullUs, l.loopbackBinUs-l.nullUs)
	if u := l.metrics["serve.unattributed_share"]; u > 0.10 {
		fmt.Fprintf(w, "warning: serve.unattributed_share %.2f > 0.10: the stage histograms leave %.0f%% of the handler's time unexplained\n", u, u*100)
	}
	names := make([]string, 0, len(l.metrics))
	for name := range l.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %14.3f\n", name, l.metrics[name])
	}
}
