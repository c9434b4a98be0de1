package experiments

import (
	"context"
	"fmt"

	"contention/internal/apps"
	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/runner"
	"contention/internal/trace"
	"contention/internal/workload"
)

// Figure-1/3 contenders: "CPU-bound" applications with realistic
// micro-pauses (duty < 1), the reason measured slowdown sits slightly
// below the ideal p+1 — the paper's measurements show the same kind of
// gap (≈11% average error in Figure 1).
const (
	hogDuty   = 0.92
	hogPeriod = 0.08
)

func spawnDutyHogs(k *des.Kernel, plat *platform.SunCM2, n int) {
	for i := 0; i < n; i++ {
		workload.SpawnDutyHogOnHost(k, plat.Host, fmt.Sprintf("hog%d", i), hogDuty, hogPeriod, int64(i+1))
	}
}

// cm2TransferElapsed measures the to-and-from transfer of an M×M matrix
// (M row messages of M words each way) with p contenders.
func cm2TransferElapsed(env *Env, m, hogs int) (float64, error) {
	k := des.New()
	defer k.Close()
	plat, err := platform.NewSunCM2(k, env.CM2Params)
	if err != nil {
		return 0, err
	}
	spawnDutyHogs(k, plat, hogs)
	return workload.Measure(k, "CM2 transfer", 0, func(p *des.Proc) float64 {
		start := p.Now()
		plat.TransferMessages(p, m, m) // Sun → CM2
		plat.TransferMessages(p, m, m) // CM2 → Sun
		return p.Now() - start
	})
}

// Figure1 reproduces the Sun/CM2 communication experiment: modeled and
// actual times to transfer an M×M matrix to and from the CM2, dedicated
// (p=0) and with 3 extra CPU-bound applications (p=3).
func Figure1(env *Env) (Result, error) {
	ms := []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	r := Result{
		ID:          "figure1",
		Title:       "Sun↔CM2 matrix transfer, dedicated and p=3",
		XLabel:      "M",
		YLabel:      "seconds",
		PaperErrPct: 11,
	}
	type point struct{ dcomm, ded, con float64 }
	pts, err := runner.Map(context.Background(), env.pool(), ms,
		func(_ context.Context, _ int, m int) (point, error) {
			sets := []core.DataSet{{N: 2 * m, Words: m}} // to and from
			dcomm, err := env.CM2Model.Dedicated(sets)
			if err != nil {
				return point{}, err
			}
			ded, err := cm2TransferElapsed(env, m, 0)
			if err != nil {
				return point{}, err
			}
			con, err := cm2TransferElapsed(env, m, 3)
			if err != nil {
				return point{}, err
			}
			return point{dcomm: dcomm, ded: ded, con: con}, nil
		})
	if err != nil {
		return Result{}, err
	}
	var xs []float64
	series := map[string][]float64{}
	for i, m := range ms {
		xs = append(xs, float64(m))
		series["model p=0"] = append(series["model p=0"], core.CM2CommTime(pts[i].dcomm, 0))
		series["actual p=0"] = append(series["actual p=0"], pts[i].ded)
		series["model p=3"] = append(series["model p=3"], core.CM2CommTime(pts[i].dcomm, 3))
		series["actual p=3"] = append(series["actual p=3"], pts[i].con)
	}
	for _, name := range []string{"model p=0", "actual p=0", "model p=3", "actual p=3"} {
		r.Series = append(r.Series, Series{Name: name, X: xs, Y: series[name]})
	}
	r.ModelErrPct = map[string]float64{
		"p=0": mape(series["model p=0"], series["actual p=0"]),
		"p=3": mape(series["model p=3"], series["actual p=3"]),
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("CM2 comm model: α=%.4gs β=%.4g words/s (calibrated)", env.CM2Model.Small.Alpha, env.CM2Model.Small.Beta),
		fmt.Sprintf("contenders: duty %.0f%% CPU-bound hogs — slowdown slightly below p+1, as on real systems", hogDuty*100))
	return r, nil
}

// Figure2 renders the serial/parallel interleave timeline of a small
// CM2 program: the Sun alternating serial instructions with parallel
// instruction issues, the CM2 alternating idle and execute — including
// a reduction where the Sun waits for the CM2's result.
func Figure2(env *Env) (Result, error) {
	k := des.New()
	defer k.Close()
	plat, err := platform.NewSunCM2(k, env.CM2Params)
	if err != nil {
		return Result{}, err
	}
	var tr trace.Trace
	k.Spawn("app", func(p *des.Proc) {
		s := plat.Backend.Attach(p, "fig2", 2)
		serial := func(d float64) {
			tr.Record(p.Now(), "sun", "serial instruction")
			plat.Host.Compute(p, d)
		}
		issue := func(d float64) {
			tr.Record(p.Now(), "sun", "parallel instruction")
			s.Issue(p, d)
		}
		serial(0.004)
		serial(0.004)
		issue(0.006)
		serial(0.002)
		serial(0.002)
		issue(0.006)
		serial(0.002)
		serial(0.004)
		serial(0.004)
		issue(0.006)
		tr.Record(p.Now(), "sun", "idle (await result)")
		s.Sync(p) // the reduction: Sun waits for the CM2
		serial(0.004)
		s.Detach(p)
		tr.Record(p.Now(), "sun", "done")

		// Back-end states from the recorded execution intervals.
		tr.Record(0, "cm2", "idle")
		for _, iv := range s.Intervals() {
			tr.Record(iv.Start, "cm2", "execute")
			tr.Record(iv.End, "cm2", "idle")
		}
		k.Stop()
	})
	k.Run()
	return Result{
		ID:    "figure2",
		Title: "Execution of a task on the CM2: front-end/back-end interleave",
		Text:  tr.Timeline(0.002, []string{"sun", "cm2"}),
		Notes: []string{
			"serial instructions execute on the Sun; parallel instructions are queued to the CM2",
			"the Sun pre-executes serial code while the CM2 works (overlap), and idles awaiting the reduction",
		},
	}, nil
}

// cm2Run is what one CM2 program run measures: its elapsed time and the
// back-end's busy and idle time within it.
type cm2Run struct{ elapsed, busy, idle float64 }

// cm2ProgramRun runs prog on a fresh Sun/CM2 beside hogs duty-cycled
// CPU contenders.
func cm2ProgramRun(env *Env, prog apps.CM2Program, hogs int) (cm2Run, error) {
	k := des.New()
	defer k.Close()
	plat, err := platform.NewSunCM2(k, env.CM2Params)
	if err != nil {
		return cm2Run{}, err
	}
	spawnDutyHogs(k, plat, hogs)
	return workload.Measure(k, prog.Name, 0, func(p *des.Proc) (run cm2Run) {
		run.elapsed, run.busy, run.idle = apps.RunCM2(p, plat, prog)
		return run
	})
}

// Figure3 reproduces the Gaussian-elimination experiment on the CM2:
// modeled and actual times for p=3 against the dedicated curve, with
// the crossover near M=200 beyond which contention stops mattering.
func Figure3(env *Env) (Result, error) {
	ms := []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	r := Result{
		ID:          "figure3",
		Title:       "Gaussian elimination on the CM2, dedicated vs p=3",
		XLabel:      "M",
		YLabel:      "seconds",
		PaperErrPct: 15,
	}
	type point struct{ ded, model0, model3, con float64 }
	pts, err := runner.Map(context.Background(), env.pool(), ms,
		func(_ context.Context, _ int, m int) (point, error) {
			prog := apps.GaussCM2Program(m)
			// Dedicated run: the source of dcomp_cm2 and didle_cm2.
			ded, err := cm2ProgramRun(env, prog, 0)
			if err != nil {
				return point{}, err
			}
			contended, err := cm2ProgramRun(env, prog, 3)
			if err != nil {
				return point{}, err
			}
			return point{
				ded:    ded.elapsed,
				model0: core.CM2ExecTime(ded.busy, ded.idle, prog.TotalSerial(), 0),
				model3: core.CM2ExecTime(ded.busy, ded.idle, prog.TotalSerial(), 3),
				con:    contended.elapsed,
			}, nil
		})
	if err != nil {
		return Result{}, err
	}
	var xs []float64
	series := map[string][]float64{}
	for i, m := range ms {
		xs = append(xs, float64(m))
		series["actual p=0"] = append(series["actual p=0"], pts[i].ded)
		series["model p=0"] = append(series["model p=0"], pts[i].model0)
		series["model p=3"] = append(series["model p=3"], pts[i].model3)
		series["actual p=3"] = append(series["actual p=3"], pts[i].con)
	}
	for _, name := range []string{"actual p=0", "model p=0", "model p=3", "actual p=3"} {
		r.Series = append(r.Series, Series{Name: name, X: xs, Y: series[name]})
	}
	r.ModelErrPct = map[string]float64{
		"p=0": mape(series["model p=0"], series["actual p=0"]),
		"p=3": mape(series["model p=3"], series["actual p=3"]),
	}
	// Locate the crossover: the first M where the contended run is
	// within 10% of dedicated.
	cross := 0.0
	for i := range xs {
		if series["actual p=3"][i] <= series["actual p=0"][i]*1.10 {
			cross = xs[i]
			break
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("contended run joins the dedicated curve at M ≈ %.0f (paper: M ≈ 200)", cross),
		"T_cm2 = max(dcomp+didle, dserial×(p+1)): serial-bound below the crossover, CM2-bound above")
	return r, nil
}
