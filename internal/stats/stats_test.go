package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasics(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("Mean = %v, want 4", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !approx(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !approx(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Min(xs) != 1 || Max(xs) != 9 {
		t.Fatalf("Min/Max = %v/%v, want 1/9", Min(xs), Max(xs))
	}
	if got := Median(xs); got != 4 {
		t.Fatalf("Median even = %v, want 4", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median odd = %v, want 2", got)
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for name, fn := range map[string]func([]float64) float64{"Min": Min, "Max": Max} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			fn(nil)
		}()
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); !approx(got, 0.1, 1e-12) {
		t.Fatalf("RelErr = %v, want 0.1", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Fatalf("RelErr(0,0) = %v, want 0", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelErr(1,0) = %v, want +Inf", got)
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 10, 1e-9) {
		t.Fatalf("MAPE = %v, want 10", got)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("MAPE length mismatch did not error")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Fatal("MAPE of empty series did not error")
	}
}

func TestOLSRecoversExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3 + 2*v
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Intercept, 3, 1e-9) || !approx(f.Slope, 2, 1e-9) {
		t.Fatalf("fit = %+v, want intercept 3 slope 2", f)
	}
	if f.RMSE > 1e-9 {
		t.Fatalf("RMSE = %v on exact data, want ~0", f.RMSE)
	}
	if got := f.Predict(10); !approx(got, 23, 1e-9) {
		t.Fatalf("Predict(10) = %v, want 23", got)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS([]float64{1}, []float64{1}); err == nil {
		t.Fatal("OLS with one point did not error")
	}
	if _, err := OLS([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("OLS with degenerate x did not error")
	}
	if _, err := OLS([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("OLS length mismatch did not error")
	}
}

func TestOLSRecoversNoisyLineProperty(t *testing.T) {
	// Property: with symmetric small noise, recovered slope/intercept
	// are close to truth for a variety of random lines.
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slope := r.Float64()*10 - 5
		intercept := r.Float64()*10 - 5
		var x, y []float64
		for i := 0; i < 200; i++ {
			xi := float64(i)
			x = append(x, xi)
			y = append(y, intercept+slope*xi+(r.Float64()-0.5)*0.01)
		}
		fit, err := OLS(x, y)
		if err != nil {
			return false
		}
		return approx(fit.Slope, slope, 1e-3) && approx(fit.Intercept, intercept, 0.05)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFitPiecewiseFindsKnee(t *testing.T) {
	// Construct a genuine two-piece function with a knee at x=1024:
	// y = 1 + 0.01x for x ≤ 1024, y = 5 + 0.02x beyond.
	var x, y []float64
	for _, xi := range []float64{16, 64, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096} {
		x = append(x, xi)
		if xi <= 1024 {
			y = append(y, 1+0.01*xi)
		} else {
			y = append(y, 5+0.02*xi)
		}
	}
	f, err := FitPiecewise(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if f.Threshold != 1024 {
		t.Fatalf("Threshold = %v, want 1024", f.Threshold)
	}
	if !approx(f.Small.Slope, 0.01, 1e-6) || !approx(f.Large.Slope, 0.02, 1e-6) {
		t.Fatalf("slopes = %v/%v, want 0.01/0.02", f.Small.Slope, f.Large.Slope)
	}
	if got := f.Predict(512); !approx(got, 1+0.01*512, 1e-6) {
		t.Fatalf("Predict(512) = %v", got)
	}
	if got := f.Predict(2048); !approx(got, 5+0.02*2048, 1e-6) {
		t.Fatalf("Predict(2048) = %v", got)
	}
}

func TestFitPiecewiseFallsBackToSingleLine(t *testing.T) {
	// Perfectly linear data: single line should win (no spurious knee
	// improving RMSE).
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2, 4, 6, 8, 10, 12}
	f, err := FitPiecewise(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Small.Slope, 2, 1e-9) || !approx(f.Large.Slope, 2, 1e-9) {
		t.Fatalf("slopes = %v/%v, want 2/2", f.Small.Slope, f.Large.Slope)
	}
	if f.RMSE > 1e-9 {
		t.Fatalf("RMSE = %v, want ~0", f.RMSE)
	}
}

func TestFitPiecewiseErrors(t *testing.T) {
	if _, err := FitPiecewise([]float64{1}, []float64{1}); err == nil {
		t.Fatal("FitPiecewise with one point did not error")
	}
	if _, err := FitPiecewise([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("FitPiecewise length mismatch did not error")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Fatalf("Summary = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("Summarize(nil) should be zero")
	}
	if s.String() == "" {
		t.Fatal("String() empty")
	}
}

// Property: MAPE is scale-invariant (scaling both series equally).
func TestMAPEScaleInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		pred := make([]float64, n)
		act := make([]float64, n)
		for i := range pred {
			act[i] = 1 + r.Float64()*100
			pred[i] = act[i] * (0.5 + r.Float64())
		}
		m1, err1 := MAPE(pred, act)
		scale := 1 + r.Float64()*10
		sp := make([]float64, n)
		sa := make([]float64, n)
		for i := range pred {
			sp[i], sa[i] = pred[i]*scale, act[i]*scale
		}
		m2, err2 := MAPE(sp, sa)
		return err1 == nil && err2 == nil && approx(m1, m2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Predict evaluates the piecewise model at x.
func (f PiecewiseFit) Predict(x float64) float64 {
	if x <= f.Threshold {
		return f.Small.Predict(x)
	}
	return f.Large.Predict(x)
}
