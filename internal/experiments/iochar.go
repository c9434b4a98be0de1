package experiments

import (
	"context"
	"fmt"

	"contention/internal/apps"
	"contention/internal/core"
	"contention/internal/runner"
	"contention/internal/workload"
)

// IOCharacteristics demonstrates the paper's §1 argument that load
// *characteristics* (CPU- versus I/O-bound) must be considered, using
// the §4 I/O extension: two I/O-bound contenders (70% disk, 30% CPU)
// slow a computation far less than two CPU-bound ones, and a model that
// treats them as CPU-bound (the naive p+1) grossly overestimates, while
// the extended model with per-contender activity fractions tracks the
// measurement.
func IOCharacteristics(env *Env) (Result, error) {
	const ioFrac = 0.7
	specs := []workload.AlternatorSpec{
		{Name: "io1", CommFraction: 0, IOFraction: ioFrac, IOWords: 8192, MsgWords: 1, Period: 0.1, Phase: 0.013},
		{Name: "io2", CommFraction: 0, IOFraction: ioFrac, IOWords: 8192, MsgWords: 1, Period: 0.1, Phase: 0.029},
	}
	cs := []core.Contender{
		{CommFraction: 0, IOFraction: ioFrac},
		{CommFraction: 0, IOFraction: ioFrac},
	}

	extended, err := env.Pred.CompSlowdown(cs)
	if err != nil {
		return Result{}, err
	}
	naive := core.SimpleSlowdown(len(cs))

	r := Result{
		ID:     "iochar",
		Title:  "I/O-bound contenders: extended model vs naive p+1",
		XLabel: "M",
		YLabel: "seconds",
	}
	type point struct{ ded, act float64 }
	pts, err := runner.Map(context.Background(), env.pool(), sorSizes,
		func(_ context.Context, _ int, m int) (point, error) {
			ded, err := sorElapsed(env.ParagonParams, m, nil)
			if err != nil {
				return point{}, err
			}
			act, err := sorElapsed(env.ParagonParams, m, specs)
			if err != nil {
				return point{}, err
			}
			return point{ded: ded, act: act}, nil
		})
	if err != nil {
		return Result{}, err
	}
	var xs, dedicated, actual, extPred, naivePred []float64
	for i, m := range sorSizes {
		xs = append(xs, float64(m))
		dcomp := apps.SORWork(m, sorIters)
		dedicated = append(dedicated, pts[i].ded)
		actual = append(actual, pts[i].act)
		extPred = append(extPred, dcomp*extended)
		naivePred = append(naivePred, dcomp*naive)
	}
	r.Series = []Series{
		{Name: "dedicated", X: xs, Y: dedicated},
		{Name: "actual", X: xs, Y: actual},
		{Name: "extended model", X: xs, Y: extPred},
		{Name: "naive p+1", X: xs, Y: naivePred},
	}
	r.ModelErrPct = map[string]float64{
		"extended": mape(extPred, actual),
		"naive":    mape(naivePred, actual),
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("extended slowdown %.3f vs naive %.0f: the contenders compute only %.0f%% of the time",
			extended, naive, 100*(1-ioFrac)),
		"§1: \"both load characteristics (CPU- versus I/O-bound) and contention on the network should be considered\"")
	return r, nil
}
