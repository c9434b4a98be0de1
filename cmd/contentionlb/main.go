// Command contentionlb fronts a self-healing fleet of contention
// prediction replicas: a supervisor spawns N backends (in-process
// serve.Servers, or child-process contentiond daemons with -exec),
// babysits them through crashes with seeded exponential backoff, and
// routes each request to the replica with the fewest requests in flight
// per unit of routing weight.
//
// The API surface is identical to a single contentiond, so clients
// cannot tell a fleet from a daemon:
//
//	POST /v1/predict  — routed to the least-loaded replica, with failover
//	POST /v1/observe  — residual broadcast to every up replica
//	GET  /healthz     — fleet health + per-member detail
//	GET  /readyz      — 503 while draining or with zero replicas up
//	GET  /metrics     — Prometheus text exposition plus merged fleet_*
//	                    member series (with -metrics)
//	GET  /debug/fleet — fleet digest: members, weights, breakers,
//	                    suspicion, per-stage p50/p99, SLO burn (HTML;
//	                    JSON with ?format=json)
//
// Around the pick sit the robustness layers: per-replica circuit
// breakers over a rolling error rate, bounded retries under a
// cluster-wide retry budget, and optional hedged second requests
// (-hedge) for tail-latency protection.
// SIGTERM drains: readiness flips off, in-flight requests finish, then
// every replica shuts down gracefully.
//
// With -members the balancer also (or only) fronts remote replicas on
// other hosts: the file lists addresses and routing weights, is
// hot-reloaded on SIGHUP and by polling, and the same -probe health
// loop that watches local replicas moves a member with no successful
// probe for -suspect-after periods out of the routing set until it
// answers again. Removing a
// member from the file drains it gracefully — it takes no new requests,
// and those in flight finish.
//
// Usage:
//
//	contentionlb -replicas 4                      # 4 in-process replicas
//	contentionlb -replicas 4 -exec ./contentiond  # 4 child-process daemons
//	contentionlb -members members.json            # remote fleet on other hosts
//	contentionlb -replicas 4 -hedge 5ms -metrics -addr :9000
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"contention/internal/caltrust"
	"contention/internal/cluster"
	"contention/internal/core"
	"contention/internal/obs"
	"contention/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8200", "listen address (host:port; :0 picks a free port)")
	replicas := flag.Int("replicas", 4, "supervised replica count")
	execBin := flag.String("exec", "", "spawn replicas as child processes of this contentiond binary (in-process replicas when empty)")
	calPath := flag.String("cal", "", "calibration artifact served by every in-process replica; built-in synthetic tables when empty")
	window := flag.Duration("window", serve.DefaultWindow, "per-replica micro-batch window (0 selects the default; <0 disables batching)")
	hedge := flag.Duration("hedge", 0, "hedged-request delay (0 disables hedging)")
	maxTries := flag.Int("max-tries", cluster.DefaultMaxTries, "attempt bound per request, first try + failovers (0 selects the default)")
	retryBudget := flag.Float64("retry-budget", cluster.DefaultRetryBudget, "cluster-wide retry allowance as a fraction of request volume (0 selects the default)")
	probe := flag.Duration("probe", cluster.DefaultProbeInterval, "health-probe period for every member, local and remote; each probe is bounded by it (0 selects the default)")
	members := flag.String("members", "", `remote members file ({"members":[{"addr":"host:port","weight":2},...]}); hot-reloaded on SIGHUP and by polling. With no explicit -replicas the local fleet is 0`)
	suspectAfter := flag.Float64("suspect-after", cluster.DefaultSuspectAfter, "probe intervals without a successful probe before a remote member is suspect (0 selects the default)")
	reload := flag.Duration("reload", time.Second, "members-file poll interval")
	timeout := flag.Duration("timeout", serve.DefaultTimeout, "end-to-end request deadline (0 selects the default)")
	fleetScrape := flag.Duration("fleet-scrape", cluster.DefaultFleetInterval, "member /metrics scrape period for the fleet_* aggregation and /debug/fleet (0 disables)")
	run := obs.NewCommand("contentionlb")
	run.ServingFlags()
	flag.Parse()
	defer obs.ExitOnPanic()
	run.Start()

	// A members file with no explicit -replicas means a remote-only
	// balancer: every backend lives on another host.
	if *members != "" {
		replicasSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "replicas" {
				replicasSet = true
			}
		})
		if !replicasSet {
			*replicas = 0
		}
	}

	var factory cluster.Factory
	backend := "in-process"
	switch {
	case *replicas == 0:
		backend = "remote-only"
	case *execBin != "":
		backend = *execBin
		args := []string{"-window", window.String()}
		if *calPath != "" {
			args = append(args, "-cal", *calPath)
		}
		// Children must expose /metrics for the fleet_* aggregation to
		// have anything to scrape; a member without it answers 404 and
		// is silently skipped.
		if run.Metrics() || *fleetScrape > 0 {
			args = append(args, "-metrics")
		}
		factory = cluster.ExecFactory(*execBin, args...)
	default:
		var cal *core.Calibration
		if *calPath != "" {
			loaded, _, err := caltrust.ReadFile(*calPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cal:", err)
				os.Exit(1)
			}
			cal = &loaded
		}
		factory = cluster.InProcessFactory(cluster.InProcConfig{Cal: cal, Window: *window})
	}

	c, err := cluster.New(cluster.Config{
		Replicas:      *replicas,
		Factory:       factory,
		HedgeDelay:    *hedge,
		MaxTries:      *maxTries,
		RetryBudget:   *retryBudget,
		ProbeInterval: *probe,
		SuspectAfter:  *suspectAfter,
		Timeout:       *timeout,
		Sampler:       run.Sampler(),
		SLO:           run.SLO(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := c.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Membership: the members file is the fleet's source of truth. Boot
	// fails on an unreadable file (a balancer with no backends is a
	// deployment error); after boot, reload errors keep the last good
	// member set serving.
	memStop := make(chan struct{})
	if *members != "" {
		ms, err := cluster.NewMembership(c, cluster.MembershipConfig{
			Path:         *members,
			PollInterval: *reload,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sum, err := ms.Reload()
		if err != nil {
			fmt.Fprintln(os.Stderr, "members:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "members: %d joined from %s\n", sum.Added, *members)
		go ms.Run(memStop)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-memStop:
					return
				case <-hup:
					sum, err := ms.Reload()
					if err != nil {
						fmt.Fprintln(os.Stderr, "members reload:", err)
						continue
					}
					fmt.Fprintf(os.Stderr, "members reload: +%d -%d ~%d\n",
						sum.Added, sum.Removed, sum.Reweighted)
				}
			}
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	fleet := cluster.NewFleet(c, *fleetScrape)
	if *fleetScrape > 0 {
		go fleet.Run(memStop)
	}
	mux.Handle("GET /debug/fleet", fleet.Handler())
	if run.Metrics() {
		// The balancer's exposition includes the merged fleet_* series
		// from the latest member scrape.
		mux.Handle("GET /metrics", fleet.MetricsHandler())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	// Zero knobs take the defaults: report what is in force, not the
	// flags as given.
	eff, effWindow := c.Config(), serve.Config{Window: *window}.WithDefaults().Window
	fmt.Fprintf(os.Stderr, "contentionlb on http://%s (%d replicas, backend %s, window %v, hedge %v, max tries %d, retry budget %g, timeout %v, probe %v, suspect after %g)\n",
		ln.Addr(), *replicas, backend, effWindow, eff.HedgeDelay, eff.MaxTries, eff.RetryBudget, eff.Timeout, eff.ProbeInterval, eff.SuspectAfter)

	obs.ServeUntilSignal(httpSrv, ln, "draining fleet")

	// Drain order: the cluster flips /readyz and refuses new predicts
	// first, in-flight routed requests finish, replicas close; then the
	// front listener shuts down.
	close(memStop)
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := c.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
	}

	run.Report(func() *obs.Manifest {
		return run.Manifest(map[string]string{
			"addr":          *addr,
			"replicas":      strconv.Itoa(*replicas),
			"backend":       backend,
			"window":        effWindow.String(),
			"hedge":         eff.HedgeDelay.String(),
			"max_tries":     strconv.Itoa(eff.MaxTries),
			"retry_budget":  fmt.Sprintf("%g", eff.RetryBudget),
			"timeout":       eff.Timeout.String(),
			"probe":         eff.ProbeInterval.String(),
			"suspect_after": fmt.Sprintf("%g", eff.SuspectAfter),
		})
	})
}
