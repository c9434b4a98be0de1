package experiments

import (
	"context"
	"fmt"

	"contention/internal/apps"
	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/runner"
	"contention/internal/workload"
)

// PhasedContention exercises the §4 extension in which contending
// applications execute for only part of the measured application's run:
// a CPU-bound contender is present at the start and leaves; a
// communicating contender joins mid-run. The phased predictor
// re-evaluates the slowdown at every job-mix change; a static predictor
// that freezes the initial mix drifts.
func PhasedContention(env *Env) (Result, error) {
	const (
		appStart = 0.5 // measurement begins after warmup
		tJoin    = 4.0 // seconds after app start: contender B joins
		tLeave   = 8.0 // seconds after app start: contender A leaves
	)
	cpuBound := core.Contender{CommFraction: 0} // contender A
	comm := core.Contender{CommFraction: 0.4, MsgWords: 500}

	phases := []core.Phase{
		{Duration: tJoin, Contenders: []core.Contender{cpuBound}},
		{Duration: tLeave - tJoin, Contenders: []core.Contender{cpuBound, comm}},
		{Contenders: []core.Contender{comm}}, // open-ended
	}

	r := Result{
		ID:     "phased",
		Title:  "Dynamic job mix: phased prediction vs static initial-mix prediction",
		XLabel: "M",
		YLabel: "seconds",
	}
	staticSlowdown, err := env.Pred.CompSlowdown([]core.Contender{cpuBound})
	if err != nil {
		return Result{}, err
	}

	ms := []int{250, 300, 350, 400, 450}
	acts, err := runner.Map(context.Background(), env.pool(), ms,
		func(_ context.Context, _ int, m int) (float64, error) {
			return phasedRun(env.ParagonParams, apps.SORWork(m, sorIters), appStart, tJoin, tLeave)
		})
	if err != nil {
		return Result{}, err
	}
	var xs, actual, phasedPred, staticPred []float64
	for i, m := range ms {
		xs = append(xs, float64(m))
		dcomp := apps.SORWork(m, sorIters)

		pred, err := core.PredictCompPhased(dcomp, phases, env.Cal.Tables)
		if err != nil {
			return Result{}, err
		}
		phasedPred = append(phasedPred, pred)
		staticPred = append(staticPred, dcomp*staticSlowdown)
		actual = append(actual, acts[i])
	}
	r.Series = []Series{
		{Name: "actual", X: xs, Y: actual},
		{Name: "phased model", X: xs, Y: phasedPred},
		{Name: "static model", X: xs, Y: staticPred},
	}
	r.ModelErrPct = map[string]float64{
		"phased": mape(phasedPred, actual),
		"static": mape(staticPred, actual),
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("timeline: CPU-bound contender [0,%.0fs); +communicating contender [%.0f,%.0fs); comm only afterwards", tLeave, tJoin, tLeave),
		"§4: \"the slowdown factors should be recalculated when the job mix changes\"")
	return r, nil
}

// phasedRun measures a compute-only application under the dynamic mix.
func phasedRun(params platform.ParagonParams, dcomp, appStart, tJoin, tLeave float64) (float64, error) {
	k := des.New()
	defer k.Close()
	sp, err := platform.NewSunParagon(k, params)
	if err != nil {
		return 0, err
	}
	// Contender A: CPU-bound from the beginning until appStart+tLeave.
	specA := workload.AlternatorSpec{
		Name: "cpuA", CommFraction: 0, MsgWords: 1, Period: 0.05,
		Stop: appStart + tLeave,
	}
	if _, err := workload.SpawnAlternator(sp, specA); err != nil {
		return 0, err
	}
	// Contender B: communicating, joins at appStart+tJoin.
	specB := workload.AlternatorSpec{
		Name: "commB", CommFraction: 0.4, MsgWords: 500, Period: 0.1,
		Phase: appStart + tJoin,
	}
	if _, err := workload.SpawnAlternator(sp, specB); err != nil {
		return 0, err
	}
	elapsed := -1.0
	k.Spawn("app", func(p *des.Proc) {
		p.Delay(appStart)
		start := p.Now()
		sp.Host.Compute(p, dcomp)
		elapsed = p.Now() - start
		k.Stop()
	})
	k.Run()
	if elapsed < 0 {
		return 0, fmt.Errorf("experiments: phased run did not finish")
	}
	return elapsed, nil
}
