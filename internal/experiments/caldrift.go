package experiments

import (
	"fmt"
	"math"
	"os"

	"contention/internal/calibrate"
	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/stats"
	"contention/internal/workload"
)

// The calibration-drift experiment: a platform whose wire bandwidth
// degrades mid-run (a flaky cable, a re-routed mesh — the paper's §4
// "slowdown factors should be recalculated" concern, applied to the
// platform constants rather than the job mix). The trust layer must
// notice from prediction residuals alone, flip the predictor to its
// conservative fallback, recalibrate on the drifted platform, and
// recover the pre-drift prediction error.

const (
	// caldriftWindows is the total number of monitoring windows; each
	// window measures one contended burst and feeds the residual to the
	// drift detector.
	caldriftWindows = 12
	// caldriftInjectAt is the first window run on the drifted platform.
	caldriftInjectAt = 4
	// caldriftMaxLag bounds the acceptable detection latency in windows.
	caldriftMaxLag = 4
	// caldriftBandwidthFactor scales the wire bandwidth at injection —
	// a β drift in the model's terms. At 512-word messages the wire is
	// ~20% of the burst cost, so a 70% bandwidth loss shifts the
	// residual by ≈ +0.45 — far past the detector's λ in one window.
	caldriftBandwidthFactor = 0.30
)

// caldriftRecalOptions is the reduced suite used for automatic
// recalibration: same grids a scheduler could afford on-line, with the
// robust layer on so the recalibrated parameters carry intervals.
func caldriftRecalOptions(env *Env) calibrate.Options {
	o := env.Opts
	o.BurstCount = 50
	o.Sizes = []int{32, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096}
	o.MaxContenders = 3
	o.ProbeWork = 0.5
	o.Repeats = 2
	o.BootstrapResamples = 50
	return o
}

// caldriftPredict evaluates the model's contended burst prediction for
// the Figure 5 scenario under the given calibration.
func caldriftPredict(cal core.Calibration, count, words int) (float64, *core.Predictor, error) {
	pred := core.NewPredictorLenient(cal)
	_, cs := figure56Contenders()
	dcomm, err := pred.DedicatedComm(core.HostToBack, []core.DataSet{{N: count, Words: words}})
	if err != nil {
		return 0, nil, err
	}
	slowdown, err := core.CommSlowdown(cs, cal.Tables)
	if err != nil {
		return 0, nil, err
	}
	return dcomm * slowdown, pred, nil
}

// CalibrationDrift runs the end-to-end trust loop: clean windows on the
// calibrated platform, a mid-run bandwidth drop, CUSUM detection from
// residuals, degraded fallback, automatic recalibration through the
// versioned store, and error recovery after adoption.
func CalibrationDrift(env *Env) (Result, error) {
	const count, words = 400, 512
	specs, cs := figure56Contenders()

	predicted, pred, err := caldriftPredict(env.Cal, count, words)
	if err != nil {
		return Result{}, err
	}

	// The versioned store holds the original calibration as v1; the
	// automatic recalibration lands as v2.
	dir, err := os.MkdirTemp("", "caldrift-store-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	store, err := caltrust.NewStore(dir)
	if err != nil {
		return Result{}, err
	}
	if _, err := store.Save(env.Cal, caltrust.Meta{Note: "initial calibration"}); err != nil {
		return Result{}, err
	}

	recalRequested := ""
	cfg := caltrust.DefaultTrackerConfig()
	cfg.OnStale = func(reason string) { recalRequested = reason }
	tracker, err := caltrust.NewTracker(pred, cfg)
	if err != nil {
		return Result{}, err
	}

	// What a resource manager would surface to schedulers: the tracker's
	// trust state (rm.Manager.Health forwards exactly these two getters).
	healthAt := func(stage string) string {
		state, reason := tracker.State(), tracker.Reason()
		if reason != "" {
			return fmt.Sprintf("rm health %s: %v (%s)", stage, state, reason)
		}
		return fmt.Sprintf("rm health %s: %v", stage, state)
	}

	drifted := env.ParagonParams
	drifted.Link.Bandwidth *= caldriftBandwidthFactor

	r := Result{
		ID:     "caldrift",
		Title:  "Calibration drift: detection, degraded fallback, and recovery (Figure 5 scenario)",
		XLabel: "window",
		YLabel: "seconds",
	}
	var xs, actualYs, predictedYs, residYs []float64
	var preErr, driftErr, postErr []float64
	detectedAt := -1
	recalAt := -1
	notes := []string{healthAt("initial")}

	for w := 0; w < caldriftWindows; w++ {
		params := env.ParagonParams
		if w >= caldriftInjectAt {
			params = drifted
		}
		actual, err := burstElapsed(params, workload.SunToParagon, count, words, specs)
		if err != nil {
			return Result{}, err
		}
		resid := actual/predicted - 1
		xs = append(xs, float64(w))
		actualYs = append(actualYs, actual)
		predictedYs = append(predictedYs, predicted)
		residYs = append(residYs, resid)
		errPct := 100 * math.Abs(actual-predicted) / actual
		switch {
		case w < caldriftInjectAt:
			preErr = append(preErr, errPct)
		case detectedAt < 0 || recalAt < 0:
			driftErr = append(driftErr, errPct)
		default:
			postErr = append(postErr, errPct)
		}

		fired, err := tracker.Observe(predicted, actual)
		if err != nil {
			return Result{}, err
		}
		if fired {
			detectedAt = w
			notes = append(notes,
				fmt.Sprintf("window %d: drift detected (%s)", w, tracker.Reason()),
				healthAt("post-detection"))
			// The stale predictor must answer with the conservative p+1
			// fallback until recalibration.
			p, err := tracker.Predictor().PredictCommRobust(core.HostToBack,
				[]core.DataSet{{N: count, Words: words}}, cs)
			if err != nil {
				return Result{}, err
			}
			if !p.Degraded {
				return Result{}, fmt.Errorf("experiments: stale predictor answered un-degraded")
			}
			notes = append(notes, fmt.Sprintf("degraded fallback active: %q (predicts %.4gs)", p.Reason, p.Value))

			// Automatic recalibration on the drifted platform, persisted
			// as the next store version and adopted.
			opts := caldriftRecalOptions(env)
			opts.Params = drifted
			recal, conf, err := calibrate.RunRobust(opts)
			if err != nil {
				return Result{}, err
			}
			v, err := store.Save(recal, caltrust.Meta{Note: fmt.Sprintf("auto recalibration at window %d", w)})
			if err != nil {
				return Result{}, err
			}
			cur, _, curV, err := store.Current()
			if err != nil {
				return Result{}, err
			}
			if curV != v {
				return Result{}, fmt.Errorf("experiments: store CURRENT at v%d, want v%d", curV, v)
			}
			newPredicted, newPred, err := caldriftPredict(cur, count, words)
			if err != nil {
				return Result{}, err
			}
			if err := tracker.Adopt(newPred); err != nil {
				return Result{}, err
			}
			if tracker.State() != caltrust.Fresh {
				return Result{}, fmt.Errorf("experiments: recalibrated tracker %v, want fresh (%s)",
					tracker.State(), tracker.Reason())
			}
			predicted = newPredicted
			recalAt = w
			notes = append(notes,
				fmt.Sprintf("window %d: recalibrated on drifted platform → store v%d (repeats %d, %d outliers rejected)",
					w, v, conf.Repeats, conf.OutliersRejected),
				healthAt("post-recalibration"))
		}
	}

	if detectedAt < 0 {
		return Result{}, fmt.Errorf("experiments: injected β drift never detected")
	}
	lag := detectedAt - caldriftInjectAt
	if lag > caldriftMaxLag {
		return Result{}, fmt.Errorf("experiments: detection lag %d windows exceeds bound %d", lag, caldriftMaxLag)
	}
	if recalRequested == "" {
		return Result{}, fmt.Errorf("experiments: OnStale recalibration request never fired")
	}
	if len(postErr) == 0 {
		return Result{}, fmt.Errorf("experiments: no post-recalibration windows ran")
	}

	r.Series = []Series{
		{Name: "actual", X: xs, Y: actualYs},
		{Name: "predicted", X: xs, Y: predictedYs},
		{Name: "residual", X: xs, Y: residYs},
	}
	r.ModelErrPct = map[string]float64{
		"pre-drift":        stats.Mean(preErr),
		"undetected-drift": stats.Mean(driftErr),
		"post-recal":       stats.Mean(postErr),
	}
	r.Notes = append(notes,
		fmt.Sprintf("β drift injected at window %d (bandwidth ×%.2f); detected at window %d (lag %d ≤ %d)",
			caldriftInjectAt, caldriftBandwidthFactor, detectedAt, lag, caldriftMaxLag),
		fmt.Sprintf("error %.1f%% pre-drift → %.1f%% while drifted → %.1f%% after recalibration",
			stats.Mean(preErr), stats.Mean(driftErr), stats.Mean(postErr)),
	)
	return r, nil
}
