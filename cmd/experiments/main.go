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
	"slices"
	"strconv"

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
	workers := flag.Int("workers", 0, "worker pool the experiment drivers and sweeps fan out on (0 = GOMAXPROCS, 1 = serial; output is byte-identical at any size)")
	run := obs.NewCommand("experiments")
	run.ProfileFlags()
	flag.Parse()
	defer obs.ExitOnPanic()
	run.Start()
	defer run.Stop()

	// The scenario sweep is no driver-table entry: it takes -scenario-n
	// and returns a manifest section besides its Result.
	const sweepID = "scenariosweep"
	if *list {
		for _, e := range experiments.Experiments {
			fmt.Println(e.ID)
		}
		fmt.Println(sweepID)
		return
	}
	var exps []experiments.Experiment
	switch {
	case *only == sweepID:
	case *only != "":
		i := slices.IndexFunc(experiments.Experiments, func(e experiments.Experiment) bool { return e.ID == *only })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *only)
			os.Exit(1)
		}
		exps = experiments.Experiments[i : i+1]
	default:
		for _, e := range experiments.Experiments {
			if !e.Extension || *extensions {
				exps = append(exps, e)
			}
		}
	}
	wantExt := *extensions || len(exps) == 1 && exps[0].Extension

	fmt.Fprintln(os.Stderr, "calibrating platforms (runs the system test suite once)...")
	env, err := experiments.NewEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibration failed:", err)
		os.Exit(1)
	}
	env = env.WithPool(runner.New(*workers))
	results, err := experiments.Run(env, exps...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment failed:", err)
		os.Exit(1)
	}
	var scenarioReport *obs.ScenarioReport
	if *only == sweepID || *scenarios && *only == "" {
		fmt.Fprintln(os.Stderr, "running the scenario sweep matrix...")
		r, rep, err := experiments.ScenarioSweep(env, *scenarioN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenario sweep failed:", err)
			os.Exit(1)
		}
		results = append(results, r)
		scenarioReport = rep
	}
	run.Report(func() *obs.Manifest {
		m := experiments.BuildManifest(env, "experiments", map[string]string{
			"only":       *only,
			"extensions": strconv.FormatBool(wantExt),
			"scenarios":  strconv.FormatBool(scenarioReport != nil),
			"workers":    strconv.Itoa(env.Pool.Workers()),
		})
		m.Scenario = scenarioReport
		return m
	})
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "encoding results:", err)
			os.Exit(1)
		}
		return
	}
	for _, r := range results {
		fmt.Println(r.Render())
	}
}
