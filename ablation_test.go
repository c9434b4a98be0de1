package contention_test

import (
	"testing"

	"contention/internal/core"
	"contention/internal/experiments"
	"contention/internal/stats"
)

// TestAblations runs the design choices DESIGN.md §5 ablates against
// their simpler alternatives on the paper's own workloads. Each row's
// advantage is the percentage points of model error (MAPE) the choice
// saves; a choice that saves none would not be worth its code.
func TestAblations(t *testing.T) {
	env := benchEnv(t)
	for _, tc := range []struct {
		name      string
		advantage func(*testing.T, *experiments.Env) float64
	}{
		{"piecewise vs single comm model", piecewiseAdvantage},
		{"nearest j vs j=1", nearestJAdvantage},
		{"mixture vs worst case", mixtureAdvantage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adv := tc.advantage(t, env)
			t.Logf("advantage %.2f pp", adv)
			if !(adv > 0) {
				t.Fatalf("advantage %v pp, want > 0", adv)
			}
		})
	}
}

// piecewiseAdvantage compares the paper's two-piece communication model
// against a single (α, β) line fitted to the dedicated burst data of
// Figure 4.
func piecewiseAdvantage(t *testing.T, env *experiments.Env) float64 {
	r, err := experiments.Figure4(env)
	if err != nil {
		t.Fatal(err)
	}
	var measured experiments.Series
	for _, s := range r.Series {
		if s.Name == "sun→paragon 1-HOP" {
			measured = s
			break
		}
	}
	if len(measured.X) == 0 {
		t.Fatal("missing sun→paragon 1-HOP series")
	}
	fit, err := stats.OLS(measured.X, measured.Y)
	if err != nil {
		t.Fatal(err)
	}
	const count = 1000
	var piecewise, single []float64
	for _, x := range measured.X {
		dcomm, err := env.Cal.ToBack.Dedicated([]core.DataSet{{N: count, Words: int(x)}})
		if err != nil {
			t.Fatal(err)
		}
		piecewise = append(piecewise, dcomm)
		single = append(single, fit.Predict(x))
	}
	errPiece, err := stats.MAPE(piecewise, measured.Y)
	if err != nil {
		t.Fatal(err)
	}
	errSingle, err := stats.MAPE(single, measured.Y)
	if err != nil {
		t.Fatal(err)
	}
	return errSingle - errPiece
}

// nearestJAdvantage is the error gap on the Figure 7 workload between
// the j=1 column and the j=1000 column the nearest-j rule selects.
func nearestJAdvantage(t *testing.T, env *experiments.Env) float64 {
	r, err := experiments.Figure7(env)
	if err != nil {
		t.Fatal(err)
	}
	return r.Err("j=1") - r.Err("j=1000")
}

// mixtureAdvantage compares the paper's probabilistic-mixture
// computation slowdown against the naive p+1 worst case on the Figure 7
// workload.
func mixtureAdvantage(t *testing.T, env *experiments.Env) float64 {
	r, err := experiments.Figure7(env)
	if err != nil {
		t.Fatal(err)
	}
	var dedicated, actual experiments.Series
	for _, s := range r.Series {
		switch s.Name {
		case "dedicated":
			dedicated = s
		case "actual":
			actual = s
		}
	}
	worst := make([]float64, len(dedicated.Y))
	for k, d := range dedicated.Y {
		worst[k] = d * core.SimpleSlowdown(2) // p = 2 contenders
	}
	errWorst, err := stats.MAPE(worst, actual.Y)
	if err != nil {
		t.Fatal(err)
	}
	return errWorst - r.Err("j=1000")
}
