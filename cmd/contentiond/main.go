// Command contentiond serves contention predictions over HTTP/JSON:
// the Figueira–Berman slowdown model behind a micro-batching daemon, so
// a resource manager can ask "what will this transfer (or compute
// phase) cost under this contender mix" without linking the model.
//
// Endpoints:
//
//	POST /v1/predict  — comm/comp cost query (see internal/serve.Request)
//	POST /v1/observe  — feed a predicted/observed residual to the trust layer
//	GET  /healthz     — liveness + calibration trust state
//	GET  /metrics     — Prometheus text exposition (with -metrics); the
//	                    metrics snapshot as JSON with ?format=json, which
//	                    a contentionlb fleet scrape reads
//
// Concurrent requests sharing a contender mix are answered by one
// batched slowdown computation per batching window; when the trust
// layer detects calibration drift the daemon degrades to the paper's
// conservative p+1 fallback and says so in every response.
//
// Usage:
//
//	contentiond                         # built-in synthetic calibration
//	contentiond -cal sun.calib.json     # stored calibration artifact
//	contentiond -addr :9090 -window 2ms -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/obs"
	"contention/internal/runner"
	"contention/internal/serve"
	"contention/internal/surface"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8123", "listen address (host:port; :0 picks a free port)")
	calPath := flag.String("cal", "", "calibration artifact (caltrust JSON); built-in synthetic Sun/Paragon tables when empty")
	window := flag.Duration("window", serve.DefaultWindow, "micro-batch window (0 selects the default; <0 disables batching: each request is evaluated alone as it arrives)")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "flush a batch group early at this many requests")
	maxInFlight := flag.Int("max-inflight", serve.DefaultMaxInFlight, "admission bound on concurrently served requests")
	maxQueue := flag.Int("max-queue", serve.DefaultMaxQueue, "admission bound on requests waiting for a slot (0 selects the default)")
	timeout := flag.Duration("timeout", serve.DefaultTimeout, "per-request deadline")
	useSurface := flag.Bool("surface", false, "precompute the slowdown surface at startup and enable the batcher-bypass fast path")
	surfaceP := flag.Int("surface-max-p", 16, "largest homogeneous contender count covered by -surface")
	surfaceCells := flag.Int("surface-cells", 512, "comm-fraction grid cells for -surface (power of two)")
	run := obs.NewCommand("contentiond")
	run.ProfileFlags()
	run.ServingFlags()
	flag.Parse()
	defer obs.ExitOnPanic()
	run.Start()
	defer run.Stop()

	cal := serve.SyntheticCalibration()
	calSource := "synthetic"
	if *calPath != "" {
		loaded, env, err := caltrust.ReadFile(*calPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cal:", err)
			os.Exit(1)
		}
		cal = loaded
		calSource = fmt.Sprintf("%s (schema v%d)", *calPath, env.Schema)
	}
	// Lenient construction + tracker adoption: an artifact that fails
	// strict validation is served in the Degraded state (p+1 fallback
	// with the reason in every response) rather than refused — the
	// operator sees why on /healthz.
	pred := core.NewPredictorLenient(cal)
	tracker, err := caltrust.NewTracker(pred, caltrust.DefaultTrackerConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracker:", err)
		os.Exit(1)
	}

	if *useSurface {
		surf, err := surface.Build(cal.Tables, surface.Config{
			MaxContenders: *surfaceP,
			GridCells:     *surfaceCells,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pred.AttachSurface(surf); err != nil {
			fmt.Fprintln(os.Stderr, "surface:", err)
			os.Exit(1)
		}
		st := surf.Stats()
		fmt.Fprintf(os.Stderr, "surface: %d nodes precomputed (p ≤ %d, %d cells, %d j columns, max interp err %.2g)\n",
			st.Fills, st.MaxContenders, st.GridCells, st.Columns, st.MaxRelError)
	}

	srv, err := serve.New(serve.Config{
		Pred:        pred,
		Tracker:     tracker,
		Pool:        runner.New(0),
		Window:      *window,
		MaxBatch:    *maxBatch,
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
		Timeout:     *timeout,
		FastPath:    *useSurface,
		Sampler:     run.Sampler(),
		SLO:         run.SLO(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if run.Metrics() {
		mux.Handle("GET /metrics", obs.Default().Handler())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	// Zero knobs take serve's defaults: report what is in force, not the
	// flags as given.
	eff := srv.Config()
	fmt.Fprintf(os.Stderr, "contentiond on http://%s (calibration %s, trust %s, window %v)\n",
		ln.Addr(), calSource, tracker.State(), eff.Window)

	obs.ServeUntilSignal(httpSrv, ln, "draining")

	// Flip /readyz to 503 first so routers stop sending new work, then
	// let in-flight requests finish within the shutdown deadline.
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
	}
	srv.Close()

	run.Report(func() *obs.Manifest {
		return run.Manifest(map[string]string{
			"addr":         *addr,
			"cal":          calSource,
			"window":       eff.Window.String(),
			"max_batch":    strconv.Itoa(eff.MaxBatch),
			"max_inflight": strconv.Itoa(eff.MaxInFlight),
			"max_queue":    strconv.Itoa(eff.MaxQueue),
			"timeout":      eff.Timeout.String(),
		})
	})
}
