// Command experiments reproduces every table and figure of the paper's
// evaluation on the simulated platforms and prints model-vs-actual
// series with error summaries. Its output is the data recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments            # run everything
//	experiments -list      # list experiment ids
//	experiments -only figure5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"contention/internal/experiments"
	"contention/internal/obs"
	"contention/internal/runner"
)

func main() {
	only := flag.String("only", "", "run a single experiment by id (e.g. figure5)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	extensions := flag.Bool("extensions", false, "also run the extension experiments (synthetic suite, I/O, phased, multi-machine)")
	scenarios := flag.Bool("scenarios", false, "also run the scenario sweep matrix (every builtin scenario × wire format × serving mode, with replay verification per cell)")
	scenarioN := flag.Int("scenario-n", 60, "requests per scenario sweep cell")
	asJSON := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	parallel := flag.Bool("parallel", true, "fan experiment drivers and sweeps out on a worker pool (output is byte-identical to serial)")
	workers := flag.Int("workers", 0, "worker-pool size for -parallel (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metrics := flag.Bool("metrics", false, "record telemetry (metrics + spans); implied by -metrics-addr and -run-report")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text on http://ADDR/metrics and expvar on /debug/vars")
	runReport := flag.String("run-report", "", "write a JSON run manifest to this file at exit (plus a Prometheus snapshot beside it)")
	flag.Parse()
	defer exitOnPanic()
	start := time.Now()

	if *metricsAddr != "" || *runReport != "" {
		*metrics = true
	}
	if *metrics {
		obs.SetEnabled(true)
	}
	if *metricsAddr != "" {
		addr, err := obs.ListenAndServe(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics-addr:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", addr)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	ids := []string{"table1-2", "table3", "table4", "figure1", "figure2",
		"figure3", "figure4", "figure5", "figure6", "figure7", "figure8",
		"synthetic", "iochar", "phased", "multimachine", "offload", "faulttolerance",
		"caldrift", "scenarioreplay", "scenariosweep"}
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *only != "" && !slices.Contains(ids, *only) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *only)
		os.Exit(1)
	}

	fmt.Fprintln(os.Stderr, "calibrating platforms (runs the system test suite once)...")
	env, err := experiments.NewEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibration failed:", err)
		os.Exit(1)
	}
	if *parallel {
		env = env.WithPool(runner.New(*workers))
	}
	results, err := experiments.All(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment failed:", err)
		os.Exit(1)
	}
	wantExt := *extensions
	if *only == "synthetic" || *only == "iochar" || *only == "phased" || *only == "multimachine" || *only == "offload" || *only == "faulttolerance" || *only == "caldrift" || *only == "scenarioreplay" {
		wantExt = true
	}
	if wantExt {
		ext, err := experiments.Extensions(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "extension experiment failed:", err)
			os.Exit(1)
		}
		results = append(results, ext...)
	}
	var scenarioReport *obs.ScenarioReport
	if *scenarios || *only == "scenariosweep" {
		fmt.Fprintln(os.Stderr, "running the scenario sweep matrix...")
		r, rep, err := experiments.ScenarioSweep(env, *scenarioN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenario sweep failed:", err)
			os.Exit(1)
		}
		results = append(results, r)
		scenarioReport = rep
	}
	var selected []experiments.Result
	for _, r := range results {
		if *only != "" && r.ID != *only {
			continue
		}
		selected = append(selected, r)
	}
	if *runReport != "" {
		m := experiments.BuildManifest(env, "experiments", map[string]string{
			"only":       *only,
			"extensions": strconv.FormatBool(wantExt),
			"scenarios":  strconv.FormatBool(scenarioReport != nil),
			"parallel":   strconv.FormatBool(*parallel),
			"workers":    strconv.Itoa(env.Pool.Workers()),
		})
		m.Scenario = scenarioReport
		m.StartedAt = start.UTC().Format(time.RFC3339)
		m.WallSeconds = time.Since(start).Seconds()
		if err := m.Write(*runReport); err != nil {
			fmt.Fprintln(os.Stderr, "run-report:", err)
			os.Exit(1)
		}
		prom := strings.TrimSuffix(*runReport, ".json") + ".prom"
		if err := os.WriteFile(prom, []byte(obs.Default().PrometheusText()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "run-report:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "run manifest: %s (metrics snapshot: %s)\n", *runReport, prom)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(selected); err != nil {
			fmt.Fprintln(os.Stderr, "encoding results:", err)
			os.Exit(1)
		}
		return
	}
	for _, r := range selected {
		fmt.Println(r.Render())
	}
}

// exitOnPanic turns a stray panic from the internal packages into a
// clean error exit instead of a crash dump — user input must never
// produce a stack trace.
func exitOnPanic() {
	if r := recover(); r != nil {
		fmt.Fprintln(os.Stderr, "fatal:", r)
		os.Exit(1)
	}
}
