package experiments

import (
	"context"
	"fmt"
	"math"

	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/faults"
	"contention/internal/monitor"
	"contention/internal/platform"
	"contention/internal/runner"
	"contention/internal/workload"
)

// faultToleranceSeed fixes the injector RNG so the perturbed sweep is
// exactly reproducible run to run.
const faultToleranceSeed = 96

// faultRun is one measured burst on a fault-injected platform.
type faultRun struct {
	elapsed     float64
	injected    int // total fault events fired
	retransmits int // link-level retransmissions
	stalls      int // host stall/crash windows
	dropped     int // monitor samples lost
}

// faultyBurst measures a Sun→Paragon burst on a platform perturbed by
// the composed fault schedule at the given intensity (rate 0 = clean).
func faultyBurst(params platform.ParagonParams, count, words int, rate float64, seed int64) (faultRun, error) {
	k := des.New()
	defer k.Close()
	sp, err := platform.NewSunParagon(k, params)
	if err != nil {
		return faultRun{}, err
	}
	specs, _ := figure56Contenders()
	for _, s := range specs {
		if _, err := workload.SpawnAlternator(sp, s); err != nil {
			return faultRun{}, err
		}
	}
	mon, err := monitor.New(sp, 0.05, 4096)
	if err != nil {
		return faultRun{}, err
	}
	mon.Start()

	in := faults.NewInjector(k, seed)
	if rate > 0 {
		err := in.Arm(
			// Each transmission attempt lost with probability `rate`
			// (70% silent drop, 30% detected corruption).
			faults.LinkFaults{Link: sp.Link, DropProb: 0.7 * rate, CorruptProb: 0.3 * rate},
			// Scheduler hiccups: onset every ~0.5 s, length scaling
			// with the fault intensity.
			faults.HostStalls{Host: sp.Host, MeanSpacing: 0.5, MeanDuration: 0.1 * rate},
			// Fail-stop crash with checkpoint restart, rare but long.
			faults.CrashRestart{Host: sp.Host, MTBF: 6, Downtime: 0.5 * rate},
			// Transient contenders the model is never told about.
			faults.ContenderChurn{MeanSpacing: 0.8, Perturb: func() {
				sp.Host.SpawnJob(0.2 * rate)
			}},
			// Lossy telemetry path to the resource manager.
			faults.SampleLoss{Monitor: mon, DropProb: rate},
		)
		if err != nil {
			return faultRun{}, err
		}
	}

	elapsed, err := workload.Measure(k, "faulty burst", burstWarmup, func(p *des.Proc) float64 {
		return workload.Burst(p, sp, workload.SunToParagon, "ftbench", count, words)
	})
	if err != nil {
		return faultRun{}, err
	}
	return faultRun{
		elapsed:     elapsed,
		injected:    in.Count(""),
		retransmits: sp.Link.Retransmits(),
		stalls:      sp.Host.Stalls(),
		dropped:     mon.Dropped(),
	}, nil
}

// faultRates is the fault-intensity sweep.
var faultRates = []float64{0, 0.05, 0.1, 0.2, 0.4}

// FaultTolerance sweeps the composed fault schedule over increasing
// intensities on the Figure 5 scenario and compares the measured burst
// time against two predictions that both know nothing about the faults:
// the calibrated mixture model, and the degraded p+1 worst case that
// core.Predictor falls back to when its delay tables are gone. The
// calibrated model's error must grow smoothly with fault intensity —
// perturbations degrade the prediction, they do not invalidate the
// model — and the run is bit-reproducible for a fixed seed.
func FaultTolerance(env *Env) (Result, error) {
	const count, words = 400, 512
	_, cs := figure56Contenders()
	slowdown, err := env.Pred.CommSlowdown(cs)
	if err != nil {
		return Result{}, err
	}
	dcomm, err := env.Pred.DedicatedComm(core.HostToBack, []core.DataSet{{N: count, Words: words}})
	if err != nil {
		return Result{}, err
	}
	// The degraded path as a scheduler would hit it: a lenient predictor
	// whose delay tables never got calibrated.
	bare := core.NewPredictorLenient(core.Calibration{ToBack: env.Cal.ToBack, ToHost: env.Cal.ToHost})
	degraded, err := bare.PredictCommRobust(core.HostToBack, []core.DataSet{{N: count, Words: words}}, cs)
	if err != nil {
		return Result{}, err
	}
	if !degraded.Degraded {
		return Result{}, fmt.Errorf("experiments: table-less predictor not degraded")
	}

	r := Result{
		ID:     "faulttolerance",
		Title:  "Model error vs injected-fault intensity (Figure 5 scenario, 400×512-word burst)",
		XLabel: "fault rate",
		YLabel: "seconds",
	}
	// Every fault intensity runs its own seeded injector on a private
	// kernel: the sweep fans out on the pool.
	runs, err := runner.Map(context.Background(), env.pool(), faultRates,
		func(_ context.Context, _ int, rate float64) (faultRun, error) {
			return faultyBurst(env.ParagonParams, count, words, rate, faultToleranceSeed)
		})
	if err != nil {
		return Result{}, err
	}
	var xs, actual, modeled, degradedYs, errPct []float64
	var notes []string
	for i, rate := range faultRates {
		run := runs[i]
		xs = append(xs, rate)
		actual = append(actual, run.elapsed)
		modeled = append(modeled, dcomm*slowdown)
		degradedYs = append(degradedYs, degraded.Value)
		errPct = append(errPct, 100*math.Abs(dcomm*slowdown-run.elapsed)/run.elapsed)
		notes = append(notes, fmt.Sprintf(
			"rate %.2f: %d faults injected (%d retransmits, %d host stalls, %d samples lost)",
			rate, run.injected, run.retransmits, run.stalls, run.dropped))
	}
	// Reproducibility: the heaviest point rerun with the same seed must
	// reproduce the measurement and the fault log exactly.
	last := len(faultRates) - 1
	rerun, err := faultyBurst(env.ParagonParams, count, words, faultRates[last], faultToleranceSeed)
	if err != nil {
		return Result{}, err
	}
	if rerun.elapsed != actual[last] || rerun.injected == 0 {
		return Result{}, fmt.Errorf("experiments: fault injection not reproducible: %.9g vs %.9g (%d faults)",
			rerun.elapsed, actual[last], rerun.injected)
	}
	r.Series = []Series{
		{Name: "actual", X: xs, Y: actual},
		{Name: "modeled", X: xs, Y: modeled},
		{Name: "degraded(p+1)", X: xs, Y: degradedYs},
		{Name: "model err %", X: xs, Y: errPct},
	}
	r.ModelErrPct = map[string]float64{
		"clean":          errPct[0],
		"heaviest-fault": errPct[last],
	}
	r.Notes = append(notes,
		fmt.Sprintf("degraded fallback reason: %q", degraded.Reason),
		fmt.Sprintf("reproducible: rate %.2f rerun matches to the bit (%d fault events)", faultRates[last], rerun.injected),
		"the calibrated model's error grows smoothly with fault intensity; the faults are invisible to it by design")
	return r, nil
}
