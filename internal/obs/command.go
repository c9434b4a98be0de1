package obs

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// Command is the run plumbing the commands share: the telemetry flags
// (-metrics, -metrics-addr, -run-report) every command with a run
// report registers, the optional profile and serving flag groups, and
// the run report written at exit. Register the flags, flag.Parse, then
// Start; main defers Stop.
type Command struct {
	name  string
	start time.Time

	metrics     *bool
	metricsAddr *string
	runReport   *string

	// Nil unless ProfileFlags registered them.
	cpuprofile, memprofile *string
	cpuFile                *os.File

	// Nil unless ServingFlags registered them.
	traceSample                       *int
	sloLatency                        *time.Duration
	sloLatencyTarget, sloAvailability *float64
	sampler                           *Sampler
	slo                               *SLOTracker
}

// NewCommand registers the telemetry flags on the process flag set for
// the command called name (the manifest's "command").
func NewCommand(name string) *Command {
	return &Command{
		name:        name,
		metrics:     flag.Bool("metrics", false, "record telemetry (metrics and spans; a daemon also exposes GET /metrics); implied by -metrics-addr and -run-report"),
		metricsAddr: flag.String("metrics-addr", "", "serve Prometheus text on http://ADDR/metrics and expvar on /debug/vars"),
		runReport:   flag.String("run-report", "", "write a JSON run manifest to this file at exit (plus a Prometheus snapshot beside it)"),
	}
}

// ProfileFlags registers -cpuprofile and -memprofile.
func (c *Command) ProfileFlags() {
	c.cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	c.memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
}

// ServingFlags registers a daemon's -trace-sample, -slo-latency,
// -slo-latency-target and -slo-availability.
func (c *Command) ServingFlags() {
	c.traceSample = flag.Int("trace-sample", 0, "head-sample 1 in N headless requests into the span timeline (0 disables; propagated trace verdicts are always honored)")
	c.sloLatency = flag.Duration("slo-latency", 0, "latency SLO threshold (0 disables the SLO tracker)")
	c.sloLatencyTarget = flag.Float64("slo-latency-target", 0.99, "fraction of requests that must beat -slo-latency")
	c.sloAvailability = flag.Float64("slo-availability", 0.999, "fraction of requests that must succeed")
}

// Start acts on the parsed flags: it starts the run's clock, turns
// telemetry on when any telemetry flag asks for it, serves
// -metrics-addr, builds the head sampler and the SLO tracker and starts
// the CPU profile. A flag it cannot act on exits 1.
func (c *Command) Start() {
	c.start = time.Now()
	if *c.metricsAddr != "" || *c.runReport != "" {
		*c.metrics = true
	}
	if *c.metrics {
		SetEnabled(true)
	}
	if *c.metricsAddr != "" {
		addr, err := ListenAndServe(*c.metricsAddr)
		if err != nil {
			fatal("metrics-addr:", err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", addr)
	}
	if c.traceSample != nil {
		c.sampler = NewSampler(*c.traceSample)
	}
	if c.sloLatency != nil && *c.sloLatency > 0 {
		slo, err := NewSLOTracker(SLOConfig{
			LatencyThresholdSeconds: c.sloLatency.Seconds(),
			LatencyTarget:           *c.sloLatencyTarget,
			AvailabilityTarget:      *c.sloAvailability,
		})
		if err != nil {
			fatal("slo:", err)
		}
		c.slo = slo
	}
	if c.cpuprofile != nil && *c.cpuprofile != "" {
		f, err := os.Create(*c.cpuprofile)
		if err != nil {
			fatal("cpuprofile:", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile:", err)
		}
		c.cpuFile = f
	}
}

// Stop writes the heap profile -memprofile asks for and stops the CPU
// profile.
func (c *Command) Stop() {
	if c.memprofile != nil && *c.memprofile != "" {
		if err := writeHeapProfile(*c.memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		c.cpuFile.Close()
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// Metrics reports whether telemetry is on: -metrics, or implied by
// -metrics-addr or -run-report.
func (c *Command) Metrics() bool { return *c.metrics }

// Sampler is the head sampler -trace-sample configured; nil (never
// sample) when it is 0 or ServingFlags was not called.
func (c *Command) Sampler() *Sampler { return c.sampler }

// SLO is the tracker the SLO flags configured; nil when -slo-latency is
// 0 or ServingFlags was not called.
func (c *Command) SLO() *SLOTracker { return c.slo }

// Manifest is a serving command's run manifest: config, the span log,
// the SLO tracker's state at exit and the registry snapshot.
func (c *Command) Manifest(config map[string]string) *Manifest {
	m := NewManifest(c.name)
	m.Config = config
	m.Spans = DefaultTracer().Spans()
	if c.slo != nil {
		st := c.slo.Status()
		m.SLO = &st
	}
	m.FillFromSnapshot(Default().Snapshot())
	return m
}

// Report writes the run report -run-report asks for, if any: the
// manifest build returns, stamped with the run's start and wall time,
// and the registry's Prometheus text beside it. build runs only when a
// report is asked for. A failed write exits 1.
func (c *Command) Report(build func() *Manifest) {
	if *c.runReport == "" {
		return
	}
	m := build()
	m.StartedAt = c.start.UTC().Format(time.RFC3339)
	m.WallSeconds = time.Since(c.start).Seconds()
	if err := m.Write(*c.runReport); err != nil {
		fatal("run-report:", err)
	}
	prom := strings.TrimSuffix(*c.runReport, ".json") + ".prom"
	if err := os.WriteFile(prom, []byte(Default().PrometheusText()), 0o644); err != nil {
		fatal("run-report:", err)
	}
	fmt.Fprintf(os.Stderr, "run manifest: %s (metrics snapshot: %s)\n", *c.runReport, prom)
}

// ServeUntilSignal serves hs on ln until SIGINT or SIGTERM arrives,
// reports it as "<signal>: <draining>" and returns, leaving the drain to
// the caller. A server that fails exits 1.
func ServeUntilSignal(hs *http.Server, ln net.Listener, draining string) {
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "%v: %s\n", sig, draining)
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serve:", err)
		}
	}
}

// ExitOnPanic turns a stray panic from the internal packages into a
// clean error exit instead of a crash dump: user input must never
// produce a stack trace. A command defers it right after flag.Parse.
func ExitOnPanic() {
	if r := recover(); r != nil {
		fmt.Fprintln(os.Stderr, "fatal:", r)
		os.Exit(1)
	}
}

// fatal reports a command's error on stderr and exits 1.
func fatal(prefix string, err error) {
	fmt.Fprintln(os.Stderr, prefix, err)
	os.Exit(1)
}
