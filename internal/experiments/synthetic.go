package experiments

import (
	"context"
	"fmt"

	"contention/internal/apps"
	"contention/internal/core"
	"contention/internal/runner"
	"contention/internal/stats"
)

// SyntheticCM2 reproduces the paper's generality check: "a large number
// of experiments using synthetic benchmarks, which employ a
// representative subset of the operations provided by the CM2 …
// have shown the error between predicted and actual times to be within
// 15% for both communication and computation". It generates a
// population of random CM2 programs spanning serial-bound to
// CM2-bound balances and validates the execution law for p ∈ {1, 2, 3}.
func SyntheticCM2(env *Env, programs int) (Result, error) {
	if programs < 1 {
		return Result{}, fmt.Errorf("experiments: program count %d must be ≥ 1", programs)
	}
	r := Result{
		ID:          "synthetic",
		Title:       fmt.Sprintf("Synthetic CM2 benchmark suite (%d random programs, p ∈ {1,2,3})", programs),
		XLabel:      "program",
		YLabel:      "seconds",
		PaperErrPct: 15,
	}
	// Each synthetic program is generated from its own seed and measured
	// on its own kernel, so the population fans out on the pool.
	type point struct{ model, actual float64 }
	indices := make([]int, programs)
	for i := range indices {
		indices[i] = i
	}
	pts, err := runner.Map(context.Background(), env.pool(), indices,
		func(_ context.Context, _ int, i int) (point, error) {
			spec := apps.DefaultSyntheticSpec(int64(1000 + i))
			// Sweep the serial/parallel balance across the population.
			frac := float64(i) / float64(programs)
			spec.SerialMeanOps *= 0.25 + 3*frac // serial-light → serial-heavy
			spec.ParallelMean *= 2.5 - 2.2*frac // CM2-heavy → CM2-light
			spec.Segments = 40 + (i*7)%80       // varying lengths
			spec.SyncEvery = []int{0, 8, 16, 4}[i%4]
			prog, err := apps.SyntheticCM2Program(spec)
			if err != nil {
				return point{}, err
			}
			p := 1 + i%3

			// Dedicated run: measure dcomp_cm2 and didle_cm2.
			ded, err := cm2ProgramRun(env, prog, 0)
			if err != nil {
				return point{}, err
			}
			model := core.CM2ExecTime(ded.busy, ded.idle, prog.TotalSerial(), p)
			contended, err := cm2ProgramRun(env, prog, p)
			if err != nil {
				return point{}, err
			}
			return point{model: model, actual: contended.elapsed}, nil
		})
	if err != nil {
		return Result{}, err
	}
	var xs, modeled, actual, errs []float64
	worst := 0.0
	for i, pt := range pts {
		xs = append(xs, float64(i))
		modeled = append(modeled, pt.model)
		actual = append(actual, pt.actual)
		e := 100 * stats.RelErr(pt.model, pt.actual)
		errs = append(errs, e)
		if e > worst {
			worst = e
		}
	}
	r.Series = []Series{
		{Name: "modeled", X: xs, Y: modeled},
		{Name: "actual", X: xs, Y: actual},
	}
	r.ModelErrPct = map[string]float64{"suite": mape(modeled, actual)}
	r.Notes = append(r.Notes,
		fmt.Sprintf("per-program error: %s", stats.Summarize(errs)),
		fmt.Sprintf("worst program error %.1f%% (paper: within 15%% on average)", worst))
	return r, nil
}
