package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"contention/internal/obs"
)

// window is the nominal length of one measured window. The reference
// machine is a small shared VM on which a neighbour slows the program by
// 10–30% for seconds at a time, so a run is cut into many short windows
// and the timing metrics are taken from the best of them (see steady).
const window = 500 * time.Millisecond

// runOpts sizes a run.
type runOpts struct {
	seed     int64
	seconds  float64       // measured seconds per workload, split into the windows
	warm     time.Duration // warm-up: caches fill, lazy set-up finishes
	setups   int           // least fixture builds per untraced run; setup_s is their steady level
	setupFor time.Duration // keep building a quick fixture until this much is spent (at most maxSetups)
	ladderN  int           // divisor of the ladder's iteration counts
	outDir   string        // trace files
}

const maxSetups = 51

// loop is the closed loop of a run: seconds/window windows, at least
// four (the smoke test's half second is cut into four shorter ones).
func (o runOpts) loop(fx *fixture) loopCfg {
	n := max(int(o.seconds/window.Seconds()), 4)
	return loopCfg{
		clients: fx.clients, warm: o.warm, windows: n,
		window: min(window, time.Duration(o.seconds/float64(n)*float64(time.Second))),
	}
}

// steady is the level a timing metric reaches when the machine leaves
// the program alone: the mean of the best quarter of the windows (or,
// for setup_s, of the fixture builds).
// Interference only ever slows a window, so the best windows repeat
// from run to run where the median of all of them does not; the mean of
// a quarter moves less than any single window, and does not drift with
// the number of windows the way a maximum does.
func steady(vals []float64, better string) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if better == "higher" {
		slices.Reverse(s)
	}
	s = s[:max(len(s)/4, 1)]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the object the driver reads from the last line of standard
// output: exactly these keys.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run of one workload, as -record stores it (one JSON
// object a line) and -compare reads it.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// Samples counts the latencies behind the percentiles; Windows holds
	// the per-window values behind each end-to-end metric.
	Samples int                  `json:"latency_samples,omitempty"`
	Windows map[string][]float64 `json:"windows,omitempty"`
	verdict
}

func newResult(workload string, seed int64, trace int) *result {
	return &result{
		Workload: workload, Seed: seed, Trace: trace,
		verdict: verdict{Correct: true, Metrics: map[string]metricValue{}},
	}
}

// table is the metric table the result reports from.
func (r *result) table() []metricDef {
	if r.Trace == 1 {
		return perLayer
	}
	return endToEnd
}

// set stores a metric of the result's table; a value that is not a
// finite number (no window had a correct operation) is stored as 0 and
// marks the run incorrect.
func (r *result) set(name string, v float64) {
	for _, d := range r.table() {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v, r.Correct = 0, false
			}
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// print writes every metric by name with its unit, in table order.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	if r.Trace == 1 {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n%s seed %d: %s — %d attempted, %d failed", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	if r.Trace == 0 {
		fmt.Fprintf(w, ", %d latency samples in %d windows", r.Samples, len(r.Windows["throughput_ops_s"]))
	}
	fmt.Fprintln(w)
	for _, d := range r.table() {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
}

// suiteModelErr is the mean model error of one paper-suite pass. The
// number is deterministic and does not depend on the workload; the
// driver's contract wants every end-to-end metric from every workload,
// so the serving workloads take one pass after their windows.
var suiteModelErr = sync.OnceValues(func() (float64, error) {
	env, err := newSuiteEnv()
	if err != nil {
		return 0, err
	}
	_, errPct, err := suitePass(env)
	return errPct, err
})

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(def workloadDef, o runOpts) (*result, error) {
	debug.FreeOSMemory() // every workload starts from a collected heap
	var (
		fx     *fixture
		setups []float64
	)
	// setup_s is the steady level of at least o.setups builds; a
	// fixture that builds in milliseconds is built until o.setupFor has
	// been spent, because three samples of so short a time do not make
	// a steady number.
	var spent time.Duration
	for i := 0; i < o.setups || (spent < o.setupFor && i < maxSetups); i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = def.setup(o.seed, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	ws := runLoop(o.loop(fx), fx.op, nil)
	fx.close()

	r := newResult(def.Name, o.seed, 0)
	r.Windows = map[string][]float64{
		"throughput_ops_s": over(ws, (*windowStats).throughput),
		"latency_p50_ms":   over(ws, func(w *windowStats) float64 { return w.latencyMs(0.50) }),
		"allocs_per_op":    over(ws, func(w *windowStats) float64 { return w.Allocs }),
		"peak_heap_mb":     over(ws, func(w *windowStats) float64 { return w.PeakHeapMB }),
		"setup_s":          setups,
	}
	for i := range ws {
		r.Attempted += ws[i].OK + ws[i].Failed
		r.Failed += ws[i].Failed
		r.Samples += len(ws[i].lat)
	}
	// Times are steady levels, counts and sizes plain medians.
	r.set("throughput_ops_s", steady(r.Windows["throughput_ops_s"], "higher"))
	r.set("latency_p50_ms", steady(r.Windows["latency_p50_ms"], "lower"))
	r.set("setup_s", steady(setups, "lower"))
	r.set("allocs_per_op", median(r.Windows["allocs_per_op"]))
	r.set("peak_heap_mb", median(r.Windows["peak_heap_mb"]))
	modelErr := fx.modelErrPct
	if modelErr == 0 {
		var err error
		if modelErr, err = suiteModelErr(); err != nil {
			return nil, fmt.Errorf("%s: paper-suite pass: %w", def.Name, err)
		}
	}
	r.set("model_err_pct", modelErr)
	if r.Attempted == 0 || r.Failed > 0 || modelErr > maxModelErrPct {
		r.Correct = false
	}
	return r, nil
}

// tracedPhase reports whether measured window idx (from 1) of a traced
// run records spans: every second one. The untraced windows in between
// give the throughput tracing is compared with, and the two timing
// metrics that are reported but not gated.
func tracedPhase(idx int) bool { return idx%2 == 0 }

// runTraced takes the per-layer metrics of one workload: the ladder's
// (passed in, it does not depend on the workload) and those of the
// traced windows.
func runTraced(def workloadDef, o runOpts, lad *ladder) (*result, error) {
	debug.FreeOSMemory()
	tr := newRecorder()
	fx, err := def.setup(o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	d := obsDelta{before: obs.Default().Snapshot()}
	cfg := o.loop(fx)
	cfg.onPhase = func(idx int) {
		on := idx <= cfg.windows && tracedPhase(idx)
		tr.on.Store(on)
		obs.SetEnabled(on)
	}
	ws := runLoop(cfg, fx.op, tr)
	d.after = obs.Default().Snapshot()
	var flags flagCounts
	if fx.flags != nil {
		flags = fx.flags()
	}
	fx.close()

	r := newResult(def.Name, o.seed, 1)
	for name, v := range lad.metrics {
		r.set(name, v)
	}
	var plain, traced, p99, cpu []float64
	for i := range ws {
		r.Attempted += ws[i].OK + ws[i].Failed
		r.Failed += ws[i].Failed
		if tracedPhase(i + 1) {
			traced = append(traced, ws[i].throughput())
			continue
		}
		plain = append(plain, ws[i].throughput())
		p99 = append(p99, ws[i].latencyMs(0.99))
		cpu = append(cpu, ws[i].CPUus)
	}
	r.set("bench.latency_p99_ms", median(p99))
	r.set("bench.cpu_us_per_op", median(cpu))
	r.set("bench.trace_overhead_share", 1-median(traced)/median(plain))
	r.set("bench.failed_share", share(float64(r.Failed), float64(r.Attempted)))

	r.set("serve.fast_share", share(float64(flags.fast), float64(flags.n)))
	r.set("serve.batched_share", share(float64(flags.batched), float64(flags.n)))
	r.set("serve.degraded_share", share(float64(flags.degraded), float64(flags.n)))

	// What the program's own counters saw while the traced windows ran
	// (obs records nothing outside them).
	hits := d.counter(obs.MetricCacheCommHits) + d.counter(obs.MetricCacheCompHits)
	misses := d.counter(obs.MetricCacheCommMisses) + d.counter(obs.MetricCacheCompMisses)
	r.set("core.memo_hit_share", share(hits, hits+misses))
	hits, misses = 0, 0
	for _, kind := range []string{"comm", "comp"} {
		hits += d.counter(obs.Label(obs.MetricSurfaceHits, "kind", kind))
		misses += d.counter(obs.Label(obs.MetricSurfaceMisses, "kind", kind))
	}
	r.set("surface.hit_share", share(hits, hits+misses))
	_, served := d.histogram(obs.MetricServeRequestSeconds)
	for _, st := range serveStages {
		r.set("serve.stage_"+strings.ReplaceAll(st, "-", "_")+"_mean_us", d.meanUs(serveStage(st), served))
	}
	_, routed := d.histogram(obs.MetricClusterRouteSeconds)
	for _, st := range []string{"decode", "route", "encode"} {
		r.set("cluster.stage_"+st+"_mean_us",
			d.meanUs(obs.Label(obs.MetricClusterStageSeconds, "stage", st), routed))
	}
	// An attempt is what the replica's own request timer saw; the rest
	// of the route stage is the ring, the breakers and the pooled hop.
	attempt := 0.0
	if routed > 0 {
		attempt = d.meanUs(obs.MetricServeRequestSeconds, 0)
	}
	r.set("cluster.stage_attempt_mean_us", attempt)
	r.set("cluster.retries_per_kop", 1000*share(d.counter(obs.MetricClusterRetries), float64(routed)))
	r.set("cluster.spills_per_kop", 1000*share(d.counter(obs.MetricClusterSpills), float64(routed)))

	layers := tr.layers()
	op, rt, inner := layers["bench.op"], layers["loopback.roundtrip"], layers[fx.layer]
	r.set("bench.span_client_self_us", perUs(op.Self, op.Count))
	r.set("bench.span_transport_self_us", perUs(rt.Self, rt.Count))
	r.set("bench.span_layer_us", perUs(inner.Total, inner.Reqs))

	if r.Attempted == 0 || r.Failed > 0 {
		r.Correct = false
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(o.outDir, "trace-"+def.Name+".json"), def.Name, o.seed); err != nil {
		return nil, fmt.Errorf("%s: trace file: %w", def.Name, err)
	}
	return r, nil
}

// perUs is d/n in µs, 0 for no n.
func perUs(d time.Duration, n int64) float64 {
	return share(float64(d)/float64(time.Microsecond), float64(n))
}

// share is part/whole, 0 for an empty whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// appendRecord appends r to the JSON-lines file at path.
func appendRecord(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
