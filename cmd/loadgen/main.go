// Command loadgen drives a contentiond prediction service with
// synthetic traffic and reports throughput and latency percentiles: a
// one-line summary on stderr and the run's JSON report on stdout. (The
// recorded, regression-gated perf numbers come from bench/, not here.)
//
// Two generator shapes:
//
//   - closed loop (-mode closed): -conc workers issue requests
//     back-to-back; throughput is whatever the service sustains.
//   - open loop (-mode open): requests arrive on a fixed schedule at
//     -rate req/s regardless of completions — the shape that exposes
//     queueing collapse, since arrivals do not slow down when the
//     server does.
//
// With no -addr, loadgen self-serves: it starts an in-process server on
// a loopback port (built-in synthetic calibration) and drives that, so
// a smoke run needs no separately started daemon. With -cluster N it
// self-serves a supervised N-replica fleet behind the affinity router
// instead, measuring the load balancer path end to end.
//
// Usage:
//
// With -remote N and -exec it self-serves the multi-host path: N
// contentiond child processes joined as remote members of a
// remote-only router (HTTP transport, heartbeat failure detection) —
// the closest single-machine stand-in for a real fleet. With -members
// it routes to the remote replicas listed in a members file instead.
//
// Usage:
//
//	loadgen -duration 5s -conc 8                  # closed loop, self-served
//	loadgen -mode open -rate 2000 -duration 10s   # open loop at 2 kreq/s
//	loadgen -binary                               # binary wire format instead of JSON
//	loadgen -binary -surface                      # + precomputed-surface fast path
//	loadgen -cluster 4                            # 4-replica fleet behind the router
//	loadgen -remote 2 -exec ./contentiond         # remote-member path, child daemons
//	loadgen -members members.json                 # remote fleet from a members file
//	loadgen -addr 127.0.0.1:8123                  # a separately started daemon
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contention/internal/cluster"
	"contention/internal/core"
	"contention/internal/obs"
	"contention/internal/runner"
	"contention/internal/scenario"
	"contention/internal/serve"
	"contention/internal/surface"
)

// report is the JSON document one run prints to stdout.
type report struct {
	Name     string             `json:"name"`
	GoOS     string             `json:"goos"`
	GoArch   string             `json:"goarch"`
	CPU      string             `json:"cpu"`
	Requests int64              `json:"requests"` // successful ones; the metrics are over these
	Metrics  map[string]float64 `json:"metrics"`
}

func main() {
	addr := flag.String("addr", "", "target host:port; empty self-serves an in-process server on loopback")
	mode := flag.String("mode", "closed", "generator shape: closed (back-to-back workers) or open (fixed arrival rate)")
	conc := flag.Int("conc", 2*runtime.GOMAXPROCS(0), "closed-loop worker count (also open-loop max in-flight)")
	rate := flag.Float64("rate", 1000, "open-loop arrival rate in req/s")
	duration := flag.Duration("duration", 3*time.Second, "run length")
	warmup := flag.Duration("warmup", 300*time.Millisecond, "warm-up run excluded from the recorded stats")
	seed := flag.Int64("seed", 1, "corpus seed")
	window := flag.Duration("window", serve.DefaultWindow, "micro-batch window for the self-served server")
	clusterN := flag.Int("cluster", 0, "self-serve a supervised cluster of N in-process replicas behind the affinity router (instead of one server); ignored with -addr")
	remoteN := flag.Int("remote", 0, "self-serve a remote-only router over N contentiond child processes from -exec; ignored with -addr")
	execBin := flag.String("exec", "", "contentiond binary spawned by -remote")
	membersPath := flag.String("members", "", "route to the remote members listed in this file (remote-only router in front); ignored with -addr")
	binaryMode := flag.Bool("binary", false, "send requests in the binary wire format instead of JSON")
	surfaceMode := flag.Bool("surface", false, "self-serve with a precomputed slowdown surface attached and the batcher-bypass fast path on (single in-process server only)")
	traceSample := flag.Int("trace-sample", 0, "head-sample 1 in N requests into a propagated trace: the context rides the trace header (JSON) or the in-band binary trace block (0 disables)")
	stagesOut := flag.Bool("stages", false, "record per-stage latency attribution on the self-served target and emit stage-*-p50/p99-ms metrics in the report")
	scenarioSpec := flag.String("scenario", "", "drive a scenario schedule instead of uniform traffic: a built-in name (steady, diurnal, bursty, flashcrowd, mixed) or a spec string; paced open-loop by the schedule's offsets over -duration from -seed (overrides -mode/-rate)")
	recordPath := flag.String("record", "", "record the -scenario run — requests and the responses they received — as a contention/trace/v1 file")
	replayPath := flag.String("replay", "", "replay a recorded trace file, paced by its recorded offsets, and verify each response against the recorded one (exit 1 on mismatch)")
	flag.Parse()

	if *mode != "closed" && *mode != "open" {
		fmt.Fprintf(os.Stderr, "-mode %q must be closed or open\n", *mode)
		os.Exit(2)
	}
	if *conc < 1 || *rate <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "-conc, -rate and -duration must be positive")
		os.Exit(2)
	}
	if *scenarioSpec != "" && *replayPath != "" {
		fmt.Fprintln(os.Stderr, "-scenario and -replay are mutually exclusive")
		os.Exit(2)
	}
	if *recordPath != "" && *scenarioSpec == "" {
		fmt.Fprintln(os.Stderr, "-record needs -scenario (the run to record)")
		os.Exit(2)
	}
	if *traceSample > 0 && (*scenarioSpec != "" || *replayPath != "") {
		fmt.Fprintln(os.Stderr, "-trace-sample does not combine with -scenario/-replay (traces of traces)")
		os.Exit(2)
	}

	if *remoteN > 0 && *execBin == "" {
		fmt.Fprintln(os.Stderr, "-remote needs -exec (the contentiond binary to spawn)")
		os.Exit(2)
	}
	if *surfaceMode && (*addr != "" || *clusterN > 0 || *remoteN > 0 || *membersPath != "") {
		fmt.Fprintln(os.Stderr, "-surface applies only to the single self-served server (no -addr/-cluster/-remote/-members)")
		os.Exit(2)
	}
	// Stage attribution and sampled traces both need telemetry on; with a
	// self-served target the server side shares this process's registry.
	if *stagesOut || *traceSample > 0 {
		obs.SetEnabled(true)
	}
	target := *addr
	remoteMembers := 0
	if target == "" {
		var (
			stop     func()
			hostPort string
			desc     string
			err      error
		)
		switch {
		case *remoteN > 0 || *membersPath != "":
			stop, hostPort, remoteMembers, err = selfServeRemote(*remoteN, *execBin, *membersPath, *window)
			desc = fmt.Sprintf("remote-only router over %d members", remoteMembers)
		case *clusterN > 0:
			stop, hostPort, err = selfServeCluster(*clusterN, *window)
			desc = fmt.Sprintf("%d-replica cluster", *clusterN)
		default:
			stop, hostPort, err = selfServe(*window, *surfaceMode)
			desc = "server"
			if *surfaceMode {
				desc = "server (surface fast path)"
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "self-serve:", err)
			os.Exit(1)
		}
		defer stop()
		target = hostPort
		fmt.Fprintf(os.Stderr, "self-serving %s on %s (synthetic calibration, window %v)\n", desc, target, *window)
	}
	url := "http://" + target + "/v1/predict"
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * *conc,
		MaxIdleConnsPerHost: 4 * *conc,
	}}

	contentType := "application/json"
	if *binaryMode {
		contentType = serve.ContentTypeBinary
	}
	sampler := obs.NewSampler(*traceSample)

	// Scenario and replay runs are schedule-paced: build the play list up
	// front so the measured loop only paces and posts.
	var (
		sc         *scenario.Scenario
		plays      []playItem
		replayRecs []scenario.Record
		scenName   string
	)
	switch {
	case *replayPath != "":
		f, err := os.Open(*replayPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		hdr, recs, err := scenario.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: reading trace %s: %v\n", *replayPath, err)
			os.Exit(1)
		}
		if len(recs) == 0 {
			fmt.Fprintf(os.Stderr, "loadgen: trace %s holds no records\n", *replayPath)
			os.Exit(1)
		}
		// The trace's wire format wins over -binary: the recorded bytes
		// are what gets replayed.
		*binaryMode = hdr.Format == scenario.FormatBinary
		contentType = "application/json"
		if *binaryMode {
			contentType = serve.ContentTypeBinary
		}
		replayRecs = recs
		plays = make([]playItem, len(recs))
		for i, r := range recs {
			plays[i] = playItem{offset: r.Offset, cohort: r.Cohort, body: r.Req}
		}
		scenName = "replay"
		fmt.Fprintf(os.Stderr, "replaying %d records (scenario %q, seed %d, %s wire, served=%v)\n",
			len(recs), hdr.Scenario, hdr.Seed, hdr.Format, hdr.Served)
	case *scenarioSpec != "":
		var err error
		if sc, err = scenario.Parse(*scenarioSpec); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
		items, err := sc.Schedule(*seed, *duration)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		format := scenario.FormatJSON
		if *binaryMode {
			format = scenario.FormatBinary
		}
		plays = make([]playItem, len(items))
		for i, it := range items {
			b, err := scenario.EncodeItem(it, format)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: encoding schedule item %d: %v\n", i, err)
				os.Exit(1)
			}
			plays[i] = playItem{offset: it.Offset, cohort: it.Cohort, body: b}
		}
		scenName = "scenario-" + benchSafe(sc.Name)
		fmt.Fprintf(os.Stderr, "scenario %s: %d scheduled requests over %v (seed %d, %s wire)\n",
			sc.Name, len(plays), *duration, *seed, format)
	}

	bodies, traced := corpus(rand.New(rand.NewSource(*seed)), 512, *binaryMode)
	if *warmup > 0 {
		run(client, url, contentType, bodies, nil, nil, "closed", *conc, *rate, *warmup)
	}
	if *stagesOut {
		// Drop warm-up observations so the stage quantiles cover only the
		// measured run.
		obs.Default().Reset()
	}
	// Mallocs delta across the measured run / successful requests gives a
	// process-wide allocs/op trend line: client encode+decode cost, plus
	// the whole server side when self-serving.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var (
		res      *result
		statuses []int
		outs     []serve.Response
	)
	if plays != nil {
		res, statuses, outs = runSchedule(client, url, contentType, plays, *conc)
	} else {
		res = run(client, url, contentType, bodies, traced, sampler, *mode, *conc, *rate, *duration)
	}
	runtime.ReadMemStats(&ms1)

	if *recordPath != "" {
		if err := writeServedTrace(*recordPath, sc, *seed, *duration, *binaryMode, plays, statuses, outs); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: recording trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "recorded %d served requests to %s\n", len(plays), *recordPath)
	}
	if replayRecs != nil {
		if m := verifyReplay(replayRecs, statuses, outs); m > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: replay verification FAILED: %d of %d responses diverged\n", m, len(replayRecs))
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "replay verified: %d responses reproduced\n", len(replayRecs))
	}

	if res.errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d/%d requests failed; first: %s\n", res.errors, res.total(), res.firstErr)
	}
	if len(res.latencies) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no successful requests")
		os.Exit(1)
	}
	sort.Float64s(res.latencies)
	name := fmt.Sprintf("Loadgen/%s-conc%d", *mode, *conc)
	if *mode == "open" {
		name = fmt.Sprintf("Loadgen/open-rate%g", *rate)
	}
	if scenName != "" {
		name = "Loadgen/" + scenName
	}
	if *addr == "" {
		switch {
		case *remoteN > 0 || *membersPath != "":
			name += fmt.Sprintf("-remote%d", remoteMembers)
		case *clusterN > 0:
			name += fmt.Sprintf("-cluster%d", *clusterN)
		}
	}
	if *binaryMode {
		name += "-bin"
	}
	if *surfaceMode {
		name += "-surface"
	}
	m := map[string]float64{
		"req/s":     float64(len(res.latencies)) / res.elapsed.Seconds(),
		"p50-ms":    percentile(res.latencies, 50),
		"p90-ms":    percentile(res.latencies, 90),
		"p99-ms":    percentile(res.latencies, 99),
		"p99.9-ms":  percentile(res.latencies, 99.9),
		"max-ms":    res.latencies[len(res.latencies)-1],
		"err%":      100 * float64(res.errors) / float64(res.total()),
		"batched%":  100 * float64(res.batched.Load()) / float64(len(res.latencies)),
		"fast%":     100 * float64(res.fast.Load()) / float64(len(res.latencies)),
		"allocs/op": float64(ms1.Mallocs-ms0.Mallocs) / float64(len(res.latencies)),
	}
	if *stagesOut {
		for k, v := range stageMetrics(obs.Default().Snapshot()) {
			m[k] = v
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d ok in %v — %.0f req/s, p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms, batched %.1f%%, fast %.1f%%, %.0f allocs/op\n",
		name, len(res.latencies), res.elapsed.Round(time.Millisecond),
		m["req/s"], m["p50-ms"], m["p99-ms"], m["p99.9-ms"], m["batched%"], m["fast%"], m["allocs/op"])

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report{
		Name:     name,
		GoOS:     runtime.GOOS,
		GoArch:   runtime.GOARCH,
		CPU:      fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		Requests: int64(len(res.latencies)),
		Metrics:  m,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// benchSafe reduces a scenario name to a run-name-safe token:
// alphanumerics, dashes and underscores, capped at 24 runes. Anything
// else (a raw spec string used without a name) falls back to "custom".
func benchSafe(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			continue
		}
		if b.Len() >= 24 {
			break
		}
	}
	if b.Len() == 0 {
		return "custom"
	}
	return b.String()
}

// writeServedTrace records a scenario run — every request body plus the
// status and response it received — as a contention/trace/v1 file, so
// the run can be replayed and verified later.
func writeServedTrace(path string, sc *scenario.Scenario, seed int64, horizon time.Duration, binary bool, plays []playItem, statuses []int, outs []serve.Response) error {
	format := scenario.FormatJSON
	if binary {
		format = scenario.FormatBinary
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw, err := scenario.NewTraceWriter(f, scenario.TraceHeader{
		Seed:      seed,
		Scenario:  sc.Spec(),
		HorizonMS: horizon.Milliseconds(),
		Format:    format,
		Served:    true,
	})
	if err != nil {
		f.Close()
		return err
	}
	for i, p := range plays {
		rec := scenario.Record{
			Offset: p.offset, Cohort: p.cohort, Req: p.body,
			HasResp: true, Status: statuses[i], Resp: outs[i],
		}
		if err := tw.Write(&rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfServe starts an in-process prediction server on a loopback port,
// optionally with a precomputed slowdown surface attached and the
// batcher-bypass fast path enabled.
func selfServe(window time.Duration, withSurface bool) (stop func(), hostPort string, err error) {
	cal := serve.SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		return nil, "", err
	}
	if withSurface {
		s, err := surface.Build(cal.Tables, surface.Config{})
		if err != nil {
			return nil, "", err
		}
		if err := pred.AttachSurface(s); err != nil {
			return nil, "", err
		}
	}
	srv, err := serve.New(serve.Config{
		Pred: pred, Pool: runner.New(0), Window: window, FastPath: withSurface,
	})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return func() { hs.Close(); srv.Close() }, ln.Addr().String(), nil
}

// selfServeCluster starts a supervised fleet of n in-process replicas
// behind the affinity router on a loopback port. Affinity routing keeps
// equal contender mixes on one replica, so batched% should hold up
// against the single-replica number instead of diluting by 1/n.
func selfServeCluster(n int, window time.Duration) (stop func(), hostPort string, err error) {
	c, err := cluster.New(cluster.Config{
		Replicas: n,
		Factory:  cluster.InProcessFactory(cluster.InProcConfig{Window: window}),
	})
	if err != nil {
		return nil, "", err
	}
	if err := c.Start(); err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
		return nil, "", err
	}
	hs := &http.Server{Handler: c.Handler()}
	go hs.Serve(ln)
	return func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	}, ln.Addr().String(), nil
}

// selfServeRemote starts a remote-only router on a loopback port and
// joins its members: n contentiond child processes spawned from bin,
// plus everything listed in membersPath (either may be empty). The
// routed path is the real multi-host one — HTTP transport, heartbeat
// failure detection — just with loopback standing in for the network.
func selfServeRemote(n int, bin, membersPath string, window time.Duration) (stop func(), hostPort string, members int, err error) {
	c, err := cluster.New(cluster.Config{})
	if err != nil {
		return nil, "", 0, err
	}
	if err := c.Start(); err != nil {
		return nil, "", 0, err
	}
	var children []cluster.Replica
	teardown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
		for _, r := range children {
			_ = r.Close(ctx)
		}
	}
	fail := func(err error) (func(), string, int, error) {
		teardown()
		return nil, "", 0, err
	}
	if n > 0 {
		factory := cluster.ExecFactory(bin, "-window", window.String())
		for i := 0; i < n; i++ {
			rep, err := factory(i, 0)
			if err != nil {
				return fail(fmt.Errorf("spawn contentiond %d: %w", i, err))
			}
			children = append(children, rep)
			if _, err := c.AddRemote(rep.Addr(), 1); err != nil {
				return fail(err)
			}
			members++
		}
	}
	if membersPath != "" {
		ms, err := cluster.NewMembership(c, cluster.MembershipConfig{Fetch: cluster.FileSource(membersPath)})
		if err != nil {
			return fail(err)
		}
		sum, err := ms.Reload(context.Background())
		if err != nil {
			return fail(err)
		}
		members += sum.Added
	}
	if members == 0 {
		return fail(fmt.Errorf("no remote members joined"))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: c.Handler()}
	go hs.Serve(ln)
	return func() {
		hs.Close()
		teardown()
	}, ln.Addr().String(), members, nil
}

// corpus builds n request bodies over a small pool of contender mixes,
// weighted toward mix reuse so the server's micro-batching sees the
// traffic shape it exists for. Half the mixes are homogeneous — one
// spec replicated p times, no I/O — the class the precomputed surface
// covers, so -surface runs exercise the fast path on realistic sweeps
// while the other half measures the heterogeneous fallback.
//
// For the binary format a second, traced encoding of each body is also
// returned: identical payload plus an in-band trace block holding
// placeholder ids, which run patches per sampled request (the block
// sits at fixed offsets right after the 4-byte header). traced is nil
// for JSON — sampled JSON requests carry the trace header instead.
func corpus(rng *rand.Rand, n int, binary bool) (bodies, traced [][]byte) {
	mixes := make([][]serve.ContenderSpec, 12)
	for m := range mixes {
		p := rng.Intn(5)
		specs := make([]serve.ContenderSpec, p)
		if m < len(mixes)/2 {
			one := serve.ContenderSpec{
				CommFraction: math.Round(rng.Float64()*80) / 100,
				MsgWords:     rng.Intn(2000),
			}
			for i := range specs {
				specs[i] = one
			}
		} else {
			for i := range specs {
				specs[i] = serve.ContenderSpec{
					CommFraction: math.Round(rng.Float64()*80) / 100,
					MsgWords:     rng.Intn(2000),
				}
			}
		}
		mixes[m] = specs
	}
	bodies = make([][]byte, n)
	if binary {
		traced = make([][]byte, n)
	}
	placeholder := obs.TraceContext{TraceID: 1, Sampled: true}
	for i := range bodies {
		req := serve.Request{Contenders: mixes[rng.Intn(len(mixes))]}
		if rng.Intn(2) == 0 {
			req.Kind = "comm"
			req.Dir = "to_back"
			if rng.Intn(2) == 0 {
				req.Dir = "to_host"
			}
			req.Sets = []serve.DataSetSpec{{N: 1 + rng.Intn(100), Words: rng.Intn(4000)}}
		} else {
			req.Kind = "comp"
			d := 0.1 + rng.Float64()*10
			req.Dcomp = &d
		}
		var (
			b   []byte
			err error
		)
		if binary {
			b, err = serve.AppendBinaryRequest(nil, &req)
			if err == nil {
				traced[i], err = serve.AppendBinaryRequestTraced(nil, &req, placeholder)
			}
		} else {
			b, err = json.Marshal(&req)
		}
		if err != nil {
			panic(err) // corpus requests are valid by construction
		}
		bodies[i] = b
	}
	return bodies, traced
}

// stageMetrics digests the serve_stage_seconds histograms into
// stage-<name>-p50/p99-ms report metrics.
func stageMetrics(snap obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	prefix := obs.MetricServeStageSeconds + `{stage="`
	for _, m := range snap.Metrics {
		if !strings.HasPrefix(m.Name, prefix) || !strings.HasSuffix(m.Name, `"}`) {
			continue
		}
		stage := m.Name[len(prefix) : len(m.Name)-2]
		if p50, ok := m.Quantile(0.5); ok {
			out["stage-"+stage+"-p50-ms"] = p50 * 1e3
		}
		if p99, ok := m.Quantile(0.99); ok {
			out["stage-"+stage+"-p99-ms"] = p99 * 1e3
		}
	}
	return out
}

// result accumulates one run's outcomes.
type result struct {
	latencies []float64 // milliseconds, successful requests only
	errors    int64
	firstErr  string
	elapsed   time.Duration
	batched   atomic.Int64
	fast      atomic.Int64
}

func (r *result) total() int64 { return int64(len(r.latencies)) + r.errors }

// run executes one generator run and returns the measured outcomes.
// Binary-format responses only arrive with status 200 — pipeline errors
// come back as the JSON envelope regardless of the request format, so
// non-200 is recorded off the status alone. When sampler fires for a
// request, a fresh root trace context rides along — patched into the
// traced binary body when one exists, the trace header otherwise.
func run(client *http.Client, url, contentType string, bodies, traced [][]byte, sampler *obs.Sampler, mode string, conc int, rate float64, d time.Duration) *result {
	res := &result{}
	var mu sync.Mutex
	record := func(lat time.Duration, out serve.Response, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.errors++
			if res.firstErr == "" {
				res.firstErr = err.Error()
			}
			return
		}
		res.latencies = append(res.latencies, float64(lat)/float64(time.Millisecond))
		if out.Batch > 1 {
			res.batched.Add(1)
		}
		if out.Fast {
			res.fast.Add(1)
		}
	}
	binaryFmt := contentType == serve.ContentTypeBinary
	one := func(idx int) {
		body := bodies[idx]
		traceHdr := ""
		if sampler.Sample() {
			tc := obs.NewRootContext(true)
			if traced != nil {
				// Patch the placeholder ids in the pre-encoded trace block,
				// which sits at a fixed offset: u32 length prefix, 4-byte
				// header, then u64 trace id + u64 span id.
				buf := append([]byte(nil), traced[idx]...)
				binary.LittleEndian.PutUint64(buf[8:], tc.TraceID)
				binary.LittleEndian.PutUint64(buf[16:], tc.SpanID)
				body = buf
			} else {
				traceHdr = tc.String()
			}
		}
		t0 := time.Now()
		var resp *http.Response
		var err error
		if traceHdr != "" {
			req, rerr := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
			if rerr != nil {
				record(0, serve.Response{}, rerr)
				return
			}
			req.Header.Set("Content-Type", contentType)
			req.Header.Set(serve.TraceHeader, traceHdr)
			resp, err = client.Do(req)
		} else {
			resp, err = client.Post(url, contentType, bytes.NewReader(body))
		}
		lat := time.Since(t0)
		if err != nil {
			record(0, serve.Response{}, err)
			return
		}
		var out serve.Response
		var decErr error
		if binaryFmt && resp.StatusCode == http.StatusOK {
			var raw []byte
			raw, decErr = io.ReadAll(resp.Body)
			if decErr == nil {
				out, decErr = serve.DecodeBinaryResponse(raw)
			}
		} else {
			decErr = json.NewDecoder(resp.Body).Decode(&out)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			record(0, serve.Response{}, fmt.Errorf("status %d", resp.StatusCode))
			return
		}
		if decErr != nil {
			record(0, serve.Response{}, decErr)
			return
		}
		record(lat, out, nil)
	}

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	switch mode {
	case "closed":
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lrng := rand.New(rand.NewSource(int64(w) + 101))
				for time.Now().Before(deadline) {
					one(lrng.Intn(len(bodies)))
				}
			}(w)
		}
	case "open":
		// Fixed arrival schedule via the shared pacer; a semaphore caps
		// in-flight requests so an overloaded server surfaces as drops
		// (counted as errors), not as an unbounded goroutine pile.
		sem := make(chan struct{}, 4*conc)
		openLoop(newUniformPacer(rate), d, len(bodies), func(idx int) {
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					one(idx)
				}()
			default:
				record(0, serve.Response{}, fmt.Errorf(overloadFmt, cap(sem)))
			}
		})
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// percentile returns the p-th percentile (nearest-rank) of sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
