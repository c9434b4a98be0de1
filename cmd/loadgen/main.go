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
// self-serves a supervised N-replica fleet behind the least-loaded
// router instead, measuring the load balancer path end to end.
//
// With -remote N and -exec it self-serves the multi-host path: N
// contentiond child processes joined as remote members of a
// remote-only router (HTTP transport, heartbeat failure detection) —
// the closest single-machine stand-in for a real fleet. With -members
// it routes to the remote replicas listed in a members file instead.
//
// The corpus, the self-served targets, the pacers, the issue loop and
// record/replay are internal/scenario's; this command keeps the flags,
// the report and the trace patching.
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
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"contention/internal/cluster"
	"contention/internal/obs"
	"contention/internal/scenario"
	"contention/internal/serve"
	"contention/internal/stats"
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
	clusterN := flag.Int("cluster", 0, "self-serve a supervised cluster of N in-process replicas behind the least-loaded router (instead of one server); ignored with -addr")
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
			tg   *scenario.Target
			desc string
			err  error
		)
		switch {
		case *remoteN > 0 || *membersPath != "":
			tg, remoteMembers, err = selfServeRemote(*remoteN, *execBin, *membersPath, *window)
			desc = fmt.Sprintf("remote-only router over %d members", remoteMembers)
		case *clusterN > 0:
			tg, err = scenario.SelfServeFleet(*clusterN, *window)
			desc = fmt.Sprintf("%d-replica cluster", *clusterN)
		default:
			tg, err = scenario.SelfServe(*window, *surfaceMode)
			desc = "server"
			if *surfaceMode {
				desc = "server (surface fast path)"
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "self-serve:", err)
			os.Exit(1)
		}
		defer tg.Close()
		target = tg.Addr
		fmt.Fprintf(os.Stderr, "self-serving %s on %s (synthetic calibration, window %v)\n", desc, target, *window)
	}
	url := "http://" + target + "/v1/predict"
	client := scenario.Client(*conc)
	format := scenario.FormatJSON
	if *binaryMode {
		format = scenario.FormatBinary
	}
	sampler := obs.NewSampler(*traceSample)

	// Scenario and replay runs are schedule-paced: build the play list up
	// front so the measured loop only paces and posts.
	var (
		sc       *scenario.Scenario
		plays    []scenario.Record
		scenName string
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
		format = hdr.Format
		*binaryMode = format == scenario.FormatBinary
		plays = recs
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
		plays = make([]scenario.Record, len(items))
		for i, it := range items {
			b, err := scenario.EncodeItem(it, format)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: encoding schedule item %d: %v\n", i, err)
				os.Exit(1)
			}
			plays[i] = scenario.Record{Offset: it.Offset, Cohort: it.Cohort, Req: b}
		}
		scenName = "scenario-" + benchSafe(sc.Name)
		fmt.Fprintf(os.Stderr, "scenario %s: %d scheduled requests over %v (seed %d, %s wire)\n",
			sc.Name, len(plays), *duration, *seed, format)
	}
	contentType := scenario.ContentType(format)

	bodies, traced := encodeCorpus(scenario.Workload{Mixes: 12}.Draw(rand.New(rand.NewSource(*seed)), 512), format)
	if *warmup > 0 {
		scenario.Drive(scenario.Shape{Workers: *conc, For: *warmup, N: len(bodies), Draw: true}, func(i int) scenario.Outcome {
			return scenario.Post(client, url, contentType, "", bodies[i])
		})
	}
	if *stagesOut {
		// Drop warm-up observations so the stage quantiles cover only the
		// measured run.
		obs.Default().Reset()
	}

	// When sampler fires for a request, a fresh root trace context rides
	// along — patched into the traced binary body when one exists, the
	// trace header otherwise.
	issue := func(i int) scenario.Outcome {
		body, traceHdr := bodies[i], ""
		if sampler.Sample() {
			tc := obs.NewRootContext(true)
			if traced != nil {
				// Patch the placeholder ids in the pre-encoded trace block,
				// which sits at a fixed offset: u32 length prefix, 4-byte
				// header, then u64 trace id + u64 span id.
				body = append([]byte(nil), traced[i]...)
				binary.LittleEndian.PutUint64(body[8:], tc.TraceID)
				binary.LittleEndian.PutUint64(body[16:], tc.SpanID)
			} else {
				traceHdr = tc.String()
			}
		}
		return scenario.Post(client, url, contentType, traceHdr, body)
	}
	shape := scenario.Shape{Workers: *conc, For: *duration, N: len(bodies), Draw: true}
	if *mode == "open" {
		shape.Rate = *rate
	}
	if plays != nil {
		shape = scenario.Shape{Workers: *conc, Offsets: make([]time.Duration, len(plays)), N: len(plays)}
		for i, p := range plays {
			shape.Offsets[i] = p.Offset
		}
		issue = func(i int) scenario.Outcome {
			return scenario.Post(client, url, contentType, "", plays[i].Req)
		}
	}

	// Mallocs delta across the measured run / successful requests gives a
	// process-wide allocs/op trend line: client encode+decode cost, plus
	// the whole server side when self-serving.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	s, outs := scenario.Drive(shape, issue)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	if *recordPath != "" {
		f, err := os.Create(*recordPath)
		if err == nil {
			err = scenario.WriteServed(f, scenario.TraceHeader{
				Seed: *seed, Scenario: sc.Spec(), HorizonMS: duration.Milliseconds(), Format: format,
			}, plays, outs)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: recording trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "recorded %d served requests to %s\n", len(plays), *recordPath)
	}
	if *replayPath != "" {
		shown := 0
		m := scenario.VerifyReplay(plays, outs, func(i int, err error) {
			if shown++; shown <= 10 {
				fmt.Fprintf(os.Stderr, "replay mismatch at record %d (%s): %v\n", i, plays[i].Cohort, err)
			}
		})
		if m > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: replay verification FAILED: %d of %d responses diverged\n", m, len(plays))
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "replay verified: %d responses reproduced\n", len(plays))
	}

	issued := s.OK + s.Errors
	if s.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d/%d requests failed; first: %v\n", s.Errors, issued, s.FirstErr)
	}
	if s.OK == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no successful requests")
		os.Exit(1)
	}
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
	// Sort once: each stats.Quantile below then sorts an ordered copy.
	sort.Float64s(s.Latencies)
	quantile := func(q float64) float64 {
		v, _ := stats.Quantile(s.Latencies, q) // never empty: s.OK > 0
		return v
	}
	m := map[string]float64{
		"req/s":     float64(s.OK) / elapsed.Seconds(),
		"p50-ms":    quantile(0.5),
		"p90-ms":    quantile(0.9),
		"p99-ms":    quantile(0.99),
		"p99.9-ms":  quantile(0.999),
		"max-ms":    quantile(1),
		"err%":      100 * float64(s.Errors) / float64(issued),
		"batched%":  100 * float64(s.Batched) / float64(s.OK),
		"fast%":     100 * float64(s.Fast) / float64(s.OK),
		"allocs/op": float64(ms1.Mallocs-ms0.Mallocs) / float64(s.OK),
	}
	if *stagesOut {
		for k, v := range stageMetrics(obs.Default().Snapshot()) {
			m[k] = v
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d ok in %v — %.0f req/s, p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms, batched %.1f%%, fast %.1f%%, %.0f allocs/op\n",
		name, s.OK, elapsed.Round(time.Millisecond),
		m["req/s"], m["p50-ms"], m["p99-ms"], m["p99.9-ms"], m["batched%"], m["fast%"], m["allocs/op"])

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report{
		Name:     name,
		GoOS:     runtime.GOOS,
		GoArch:   runtime.GOARCH,
		CPU:      fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		Requests: int64(s.OK),
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

// selfServeRemote starts a remote-only router on a loopback port and
// joins its members: n contentiond child processes spawned from bin,
// plus everything listed in membersPath (either may be empty). The
// routed path is the real multi-host one — HTTP transport, heartbeat
// failure detection — just with loopback standing in for the network.
func selfServeRemote(n int, bin, membersPath string, window time.Duration) (tg *scenario.Target, members int, err error) {
	c, err := cluster.New(cluster.Config{})
	if err != nil {
		return nil, 0, err
	}
	if err := c.Start(); err != nil {
		return nil, 0, err
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
	fail := func(err error) (*scenario.Target, int, error) {
		teardown()
		return nil, 0, err
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
	tg, err = scenario.Serve(c.Handler(), teardown)
	return tg, members, err
}

// encodeCorpus renders the uniform-traffic requests in the run's wire
// format. For the binary format a second, traced encoding of each body
// is also returned: identical payload plus an in-band trace block
// holding placeholder ids, which a sampled request patches (the block
// sits at fixed offsets right after the 4-byte header). traced is nil
// for JSON — sampled JSON requests carry the trace header instead.
func encodeCorpus(reqs []*serve.Request, format string) (bodies, traced [][]byte) {
	bodies = make([][]byte, len(reqs))
	if format == scenario.FormatBinary {
		traced = make([][]byte, len(reqs))
	}
	placeholder := obs.TraceContext{TraceID: 1, Sampled: true}
	for i, req := range reqs {
		b, err := scenario.EncodeItem(scenario.Item{Req: req}, format)
		if err == nil && traced != nil {
			traced[i], err = serve.AppendBinaryRequestTraced(nil, req, placeholder)
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
