// Command bench is the repository's one benchmark: five workloads, the
// end-to-end metrics a user of the system sees, and a per-layer ladder
// from prob to cluster. See README.md.
//
//	go run -C bench .                      every workload, untraced then traced
//	go run -C bench . -workload W -seed N -seconds S -trace 0|1
//	go run -C bench . -ladder              the per-layer ladder alone
//	go run -C bench . -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result object as the last line (default: all five)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "measured seconds per workload, in half-second windows")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: the traced run's per-layer metrics only; default both")
		showLad  = flag.Bool("ladder", false, "print the per-layer ladder and its reconciliation line, run no workload")
		cmp      = flag.Bool("compare", false, "compare two -record files: bench -compare A.jsonl B.jsonl")
		smoke    = flag.Bool("smoke", false, "half a second per workload and a short ladder: checks the plumbing, measures nothing")
		recordTo = flag.String("record", "", "append every result to this JSON-lines file")
		outDir   = flag.String("out", "out", "directory of the trace files")
	)
	flag.Parse()
	// The sizing rule: up to four cores, so the numbers of a 2-core
	// reference machine and a larger one stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *cmp {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.jsonl B.jsonl")
		}
		within, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(1, err)
		}
		if !within {
			os.Exit(1)
		}
		return
	}

	o := runOpts{seed: *seed, seconds: *seconds, warm: 2 * time.Second, setups: 3, setupFor: time.Second, ladderN: 1, outDir: *outDir}
	if *smoke {
		o = smokeOpts(*seed, *outDir)
	}
	if *showLad {
		lad, err := runLadder(o.seed, o.ladderN)
		if err != nil {
			fatal(1, err)
		}
		lad.print(os.Stdout)
		return
	}

	defs := workloads
	if *workload != "" {
		defs = nil
		for _, d := range workloads {
			if d.Name == *workload {
				defs = []workloadDef{d}
			}
		}
		if defs == nil {
			fatal(2, "unknown workload "+*workload)
		}
	}
	results, err := runAll(os.Stdout, defs, o, *trace)
	if err != nil {
		fatal(1, err)
	}
	allCorrect := true
	for _, r := range results {
		allCorrect = allCorrect && r.Correct
		if *recordTo != "" {
			if err := appendRecord(*recordTo, r); err != nil {
				fatal(1, err)
			}
		}
	}
	if *workload != "" {
		// The driver's contract: one object, last line, exit 0 — its
		// correct key carries the verdict.
		line, err := json.Marshal(results[len(results)-1].verdict)
		if err != nil {
			fatal(1, err)
		}
		fmt.Printf("%s\n", line)
		return
	}
	if !allCorrect {
		fatal(1, "a workload with no faults injected had failed operations")
	}
}

// runAll runs the workloads back to back: each one's untraced windows
// (trace 0 or -1), then its traced run (trace 1 or -1) over one shared
// ladder pass. Every result is printed as it completes.
func runAll(w io.Writer, defs []workloadDef, o runOpts, trace int) ([]*result, error) {
	var (
		results []*result
		lad     *ladder
	)
	if trace != 0 {
		var err error
		if lad, err = runLadder(o.seed, o.ladderN); err != nil {
			return nil, err
		}
	}
	for _, def := range defs {
		if trace != 1 {
			r, err := runUntraced(def, o)
			if err != nil {
				return nil, err
			}
			r.print(w)
			results = append(results, r)
		}
		if trace != 0 {
			r, err := runTraced(def, o, lad)
			if err != nil {
				return nil, err
			}
			r.print(w)
			results = append(results, r)
		}
	}
	return results, nil
}

// smokeOpts sizes the run that checks the plumbing and measures
// nothing: half a second per workload, one fixture build, a ladder of a
// twentieth of the iterations.
func smokeOpts(seed int64, outDir string) runOpts {
	return runOpts{seed: seed, seconds: 0.5, warm: 100 * time.Millisecond, setups: 1, ladderN: 20, outDir: outDir}
}

func fatal(code int, msg any) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(code)
}
