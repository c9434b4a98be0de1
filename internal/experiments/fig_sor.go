package experiments

import (
	"context"
	"fmt"
	"sort"

	"contention/internal/apps"
	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/obs"
	"contention/internal/platform"
	"contention/internal/runner"
	"contention/internal/workload"
)

// sorIters is the sweep count of the SOR benchmark runs (the paper
// parameterizes by problem size M×M; iterations are held fixed).
const sorIters = 20

// sorSizes is the problem-size sweep of Figures 7 and 8.
var sorSizes = []int{100, 150, 200, 250, 300, 350, 400}

// sorElapsed measures the SOR program (pure Sun computation) under the
// given contenders.
func sorElapsed(params platform.ParagonParams, m int, specs []workload.AlternatorSpec) (float64, error) {
	k := des.New()
	defer k.Close()
	sp, err := platform.NewSunParagon(k, params)
	if err != nil {
		return 0, err
	}
	for _, s := range specs {
		if _, err := workload.SpawnAlternator(sp, s); err != nil {
			return 0, err
		}
	}
	return workload.Measure(k, "SOR", contendedWarmup(specs), func(p *des.Proc) float64 {
		start := p.Now()
		sp.Host.Compute(p, apps.SORWork(m, sorIters))
		return p.Now() - start
	})
}

// sorFigure runs one SOR-under-contention experiment, sweeping the j
// column used by the computation slowdown to reproduce the paper's
// sensitivity analysis.
func sorFigure(env *Env, id, title string, specs []workload.AlternatorSpec, cs []core.Contender, bestJ int, paperErrByJ map[int]float64) (Result, error) {
	r := Result{
		ID:          id,
		Title:       title,
		XLabel:      "M",
		YLabel:      "seconds",
		PaperErrPct: paperErrByJ[bestJ],
	}
	jGrid := []int{1, 500, 1000}
	slowdowns := map[int]float64{}
	for _, j := range jGrid {
		s, err := env.Pred.CompSlowdownWithJ(cs, j)
		if err != nil {
			return Result{}, err
		}
		slowdowns[j] = s
	}
	autoSlowdown, err := env.Pred.CompSlowdown(cs)
	if err != nil {
		return Result{}, err
	}

	// Measured sweep: every problem size simulates a dedicated and a
	// contended run on its own DES kernel, so the points fan out on the
	// pool and reassemble by index.
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
	var xs, dedicated, actual, dcomps []float64
	for i, m := range sorSizes {
		xs = append(xs, float64(m))
		dcomps = append(dcomps, apps.SORWork(m, sorIters))
		dedicated = append(dedicated, pts[i].ded)
		actual = append(actual, pts[i].act)
	}
	// Model sweep: one slowdown evaluation per j column, amortized over
	// the whole problem-size grid by the batched predictor API.
	modeled := map[int][]float64{}
	for _, j := range jGrid {
		ys, err := env.Pred.PredictCompBatchWithJ(nil, dcomps, cs, j)
		if err != nil {
			return Result{}, err
		}
		modeled[j] = ys
	}
	r.Series = []Series{
		{Name: "dedicated", X: xs, Y: dedicated},
		{Name: "actual", X: xs, Y: actual},
	}
	r.ModelErrPct = map[string]float64{}
	for _, j := range jGrid {
		r.Series = append(r.Series, Series{Name: fmt.Sprintf("model j=%d", j), X: xs, Y: modeled[j]})
		r.ModelErrPct[fmt.Sprintf("j=%d", j)] = mape(modeled[j], actual)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("slowdowns: j=1 → %.3f, j=500 → %.3f, j=1000 → %.3f (auto j → %.3f)",
			slowdowns[1], slowdowns[500], slowdowns[1000], autoSlowdown),
		fmt.Sprintf("paper: best accuracy at j=%d; j sensitivity shows the message size matters", bestJ))
	// Sorted so the rendered notes are deterministic (map iteration
	// order is not) and serial/parallel runs stay byte-identical.
	paperJs := make([]int, 0, len(paperErrByJ))
	for j := range paperErrByJ {
		paperJs = append(paperJs, j)
	}
	sort.Ints(paperJs)
	for _, j := range paperJs {
		r.Notes = append(r.Notes, fmt.Sprintf("paper error at j=%d: ≈%.0f%%", j, paperErrByJ[j]))
	}
	return r, nil
}

// Figure7 reproduces the SOR experiment with contenders communicating
// 66% (800-word messages) and 33% (1200-word messages) of the time:
// the paper reports 4% error with j=1000, 16% with j=500, 32% with j=1.
func Figure7(env *Env) (Result, error) {
	specs := []workload.AlternatorSpec{
		{Name: "alt66", CommFraction: 0.66, MsgWords: 800, Period: 0.1, Phase: 0.017, Direction: workload.SunToParagon},
		{Name: "alt33", CommFraction: 0.33, MsgWords: 1200, Period: 0.1, Phase: 0.031, Direction: workload.ParagonToSun},
	}
	cs := []core.Contender{
		{CommFraction: 0.66, MsgWords: 800},
		{CommFraction: 0.33, MsgWords: 1200},
	}
	return sorFigure(env, "figure7",
		"SOR on the Sun under contenders (66% @ 800w, 33% @ 1200w)",
		specs, cs, 1000, map[int]float64{1000: 4, 500: 16, 1: 32})
}

// Figure8 reproduces the SOR experiment with contenders communicating
// 40% (500-word messages) and 76% (200-word messages) of the time:
// the paper reports 5% error with j=500 and 25% with j=1 or j=1000.
func Figure8(env *Env) (Result, error) {
	specs := []workload.AlternatorSpec{
		{Name: "alt40", CommFraction: 0.40, MsgWords: 500, Period: 0.1, Phase: 0.017, Direction: workload.SunToParagon},
		{Name: "alt76", CommFraction: 0.76, MsgWords: 200, Period: 0.1, Phase: 0.031, Direction: workload.ParagonToSun},
	}
	cs := []core.Contender{
		{CommFraction: 0.40, MsgWords: 500},
		{CommFraction: 0.76, MsgWords: 200},
	}
	return sorFigure(env, "figure8",
		"SOR on the Sun under contenders (40% @ 500w, 76% @ 200w)",
		specs, cs, 500, map[int]float64{500: 5, 1: 25, 1000: 25})
}

// Experiment is one entry of the driver table: an experiment id, the
// driver that produces its Result, and whether it goes beyond the
// paper's published exhibits.
type Experiment struct {
	ID        string
	Extension bool
	Run       func(*Env) (Result, error)
}

// Experiments is the driver table: the paper's tables and figures in
// paper order, then the extensions — its generality claim (synthetic
// suite) and the §4 future work implemented here (I/O characteristics,
// dynamic job mix, multi-machine platforms and beyond).
var Experiments = []Experiment{
	{"table1-2", false, func(*Env) (Result, error) { return Tables12() }},
	{"table3", false, func(*Env) (Result, error) { return Table3() }},
	{"table4", false, func(*Env) (Result, error) { return Table4() }},
	{"figure1", false, Figure1},
	{"figure2", false, Figure2},
	{"figure3", false, Figure3},
	{"figure4", false, Figure4},
	{"figure5", false, Figure5},
	{"figure6", false, Figure6},
	{"figure7", false, Figure7},
	{"figure8", false, Figure8},
	{"synthetic", true, func(env *Env) (Result, error) { return SyntheticCM2(env, 30) }},
	{"iochar", true, IOCharacteristics},
	{"phased", true, PhasedContention},
	{"multimachine", true, MultiMachine},
	{"offload", true, OffloadDecision},
	{"faulttolerance", true, FaultTolerance},
	{"caldrift", true, CalibrationDrift},
	{"scenarioreplay", true, ScenarioReplay},
}

// Run runs exps as one suite pass, fanned out on the Env's pool.
// Results come back in input order and the reported error is the first
// experiment's (by position) regardless of completion order, so the
// parallel suite is observationally identical to the serial loop.
func Run(env *Env, exps ...Experiment) ([]Result, error) {
	env = env.forPass()
	return runner.Map(context.Background(), env.pool(), exps,
		func(_ context.Context, _ int, e Experiment) (Result, error) {
			// A span on the default tracer times each driver, so run
			// manifests carry a per-driver timeline.
			sp := obs.StartSpan("driver", e.ID)
			r, err := e.Run(env)
			sp.End()
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", e.ID, err)
			}
			return r, nil
		})
}

// All runs every table and figure driver in paper order.
func All(env *Env) ([]Result, error) { return Run(env, suite(false)...) }

// suite returns the paper's drivers, or the extensions, in table order.
func suite(extension bool) []Experiment {
	var out []Experiment
	for _, e := range Experiments {
		if e.Extension == extension {
			out = append(out, e)
		}
	}
	return out
}
