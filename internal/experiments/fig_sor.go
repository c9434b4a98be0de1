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

// mDriverSeconds records each driver's wall time; the same interval is
// also captured as a span on the default tracer, so run manifests carry
// a per-driver timeline.
var mDriverSeconds = obs.NewGaugeVec(obs.MetricDriverSeconds,
	"wall seconds spent in each experiment driver", "driver")

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
	warmup := burstWarmup
	if len(specs) == 0 {
		warmup = 0
	}
	elapsed := -1.0
	k.Spawn("sor", func(p *des.Proc) {
		if warmup > 0 {
			p.Delay(warmup)
		}
		start := p.Now()
		sp.Host.Compute(p, apps.SORWork(m, sorIters))
		elapsed = p.Now() - start
		k.Stop()
	})
	k.Run()
	if elapsed < 0 {
		return 0, fmt.Errorf("experiments: SOR run (M=%d) did not finish", m)
	}
	return elapsed, nil
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
		ys, err := env.Pred.PredictCompBatchWithJ(dcomps, cs, j)
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

// driver pairs an experiment id with its runner, for the suite fan-out.
type driver struct {
	name string
	run  func() (Result, error)
}

// runDrivers fans the drivers out on the Env's pool. Results come back
// in input order and the reported error is the first driver's (by
// position) regardless of completion order, so the parallel suite is
// observationally identical to the serial loop.
func runDrivers(env *Env, drivers []driver) ([]Result, error) {
	return runner.Map(context.Background(), env.pool(), drivers,
		func(_ context.Context, _ int, d driver) (Result, error) {
			sp := obs.StartSpan("driver", d.name)
			r, err := d.run()
			mDriverSeconds.With(d.name).Add(sp.End())
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", d.name, err)
			}
			return r, nil
		})
}

// All runs every table and figure driver in paper order.
func All(env *Env) ([]Result, error) {
	env = env.forPass()
	return runDrivers(env, []driver{
		{"table1-2", Tables12},
		{"table3", Table3},
		{"table4", Table4},
		{"figure1", func() (Result, error) { return Figure1(env) }},
		{"figure2", func() (Result, error) { return Figure2(env) }},
		{"figure3", func() (Result, error) { return Figure3(env) }},
		{"figure4", func() (Result, error) { return Figure4(env) }},
		{"figure5", func() (Result, error) { return Figure5(env) }},
		{"figure6", func() (Result, error) { return Figure6(env) }},
		{"figure7", func() (Result, error) { return Figure7(env) }},
		{"figure8", func() (Result, error) { return Figure8(env) }},
	})
}

// Extensions runs the drivers that go beyond the paper's published
// exhibits: its generality claim (synthetic suite) and the §4 future
// work implemented here (I/O characteristics, dynamic job mix,
// multi-machine platforms).
func Extensions(env *Env) ([]Result, error) {
	env = env.forPass()
	return runDrivers(env, []driver{
		{"synthetic", func() (Result, error) { return SyntheticCM2(env, 30) }},
		{"iochar", func() (Result, error) { return IOCharacteristics(env) }},
		{"phased", func() (Result, error) { return PhasedContention(env) }},
		{"multimachine", func() (Result, error) { return MultiMachine(env) }},
		{"offload", func() (Result, error) { return OffloadDecision(env) }},
		{"faulttolerance", func() (Result, error) { return FaultTolerance(env) }},
		{"caldrift", func() (Result, error) { return CalibrationDrift(env) }},
		{"scenarioreplay", func() (Result, error) { return ScenarioReplay(env) }},
	})
}
