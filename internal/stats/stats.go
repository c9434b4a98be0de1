// Package stats provides the small statistical toolkit the contention
// model and its calibration suite need: summaries, mean-absolute
// percentage error, ordinary least squares, piecewise-linear fitting
// with exhaustive threshold search (the paper's method for locating the
// Sun/Paragon 1024-word knee), and the robust-estimation primitives the
// calibration trust layer uses to harden measurements against noise:
// trimmed means, median absolute deviation, quantiles, MAD-based
// outlier rejection, and bootstrap confidence intervals.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// sortedCopy returns xs sorted ascending without disturbing the
// caller's slice. Every order statistic below goes through it so none
// of them can mutate calibration sample buffers in place.
func sortedCopy(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (average of middle two for even n).
// The caller's slice is left untouched.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the q-th quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between order statistics (the "type 7" estimator). The
// caller's slice is not mutated.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	s := sortedCopy(xs)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// TrimmedMean returns the mean of xs after dropping the trim fraction
// from each tail (trim in [0, 0.5)). trim = 0 is the plain mean; the
// count trimmed per tail is floor(n·trim), so small samples degrade
// gracefully to the untrimmed mean.
func TrimmedMean(xs []float64, trim float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: TrimmedMean of empty slice")
	}
	if trim < 0 || trim >= 0.5 || math.IsNaN(trim) {
		return 0, fmt.Errorf("stats: trim fraction %v out of [0,0.5)", trim)
	}
	s := sortedCopy(xs)
	k := int(float64(len(s)) * trim)
	s = s[k : len(s)-k]
	return Mean(s), nil
}

// MAD returns the median absolute deviation of xs about its median —
// the robust scale estimate behind the calibration outlier filter. It
// is not scaled to be consistent with the standard deviation; multiply
// by 1.4826 for that.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// RejectOutliersMAD returns the values of xs within k MADs of the
// median (k is in standard-deviation-equivalent units via the 1.4826
// consistency factor), plus the number rejected. A zero MAD — at least
// half the samples identical, common for deterministic measurements —
// keeps every sample: there is no scale to reject against.
func RejectOutliersMAD(xs []float64, k float64) ([]float64, int) {
	if len(xs) == 0 || k <= 0 {
		return append([]float64(nil), xs...), 0
	}
	m := Median(xs)
	scale := 1.4826 * MAD(xs)
	if scale == 0 {
		return append([]float64(nil), xs...), 0
	}
	kept := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-m) <= k*scale {
			kept = append(kept, x)
		}
	}
	return kept, len(xs) - len(kept)
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// RelErr returns |predicted-actual| / actual. An actual of zero yields
// zero when predicted is also zero, else +Inf.
func RelErr(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// MAPE returns the mean absolute percentage error (in percent) of
// predicted against actual, the paper's accuracy metric.
func MAPE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, fmt.Errorf("stats: MAPE length mismatch %d vs %d", len(predicted), len(actual))
	}
	if len(predicted) == 0 {
		return 0, errors.New("stats: MAPE of empty series")
	}
	s := 0.0
	for i := range predicted {
		s += RelErr(predicted[i], actual[i])
	}
	return 100 * s / float64(len(predicted)), nil
}

// LinearFit is the result of an ordinary-least-squares fit
// y ≈ Intercept + Slope·x.
type LinearFit struct {
	Intercept float64
	Slope     float64
	RMSE      float64
	N         int
}

// OLS fits a straight line by ordinary least squares. It requires at
// least two points with distinct x values.
func OLS(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: OLS length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, errors.New("stats: OLS needs at least 2 points")
	}
	mx, my := Mean(x), Mean(y)
	sxx, sxy := 0.0, 0.0
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: OLS with degenerate x values")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	sse := 0.0
	for i := 0; i < n; i++ {
		r := y[i] - (intercept + slope*x[i])
		sse += r * r
	}
	return LinearFit{Intercept: intercept, Slope: slope, RMSE: math.Sqrt(sse / float64(n)), N: n}, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

// PiecewiseFit is a two-piece linear model split at Threshold:
// points with x ≤ Threshold use Small, the rest use Large. This is the
// paper's piecewise communication-cost model.
type PiecewiseFit struct {
	Threshold float64
	Small     LinearFit
	Large     LinearFit
	RMSE      float64
}

// FitPiecewise fits a two-piece linear model by exhaustive search over
// candidate thresholds (each distinct x value), exactly as the paper
// determines the Sun/Paragon 1024-word knee. Each piece needs at least
// two points. If no valid split exists it falls back to a single line
// used for both pieces with Threshold = max x.
func FitPiecewise(x, y []float64) (PiecewiseFit, error) {
	if len(x) != len(y) {
		return PiecewiseFit{}, fmt.Errorf("stats: FitPiecewise length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return PiecewiseFit{}, errors.New("stats: FitPiecewise needs at least 2 points")
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(x))
	for i := range x {
		pts[i] = pt{x[i], y[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	sx := make([]float64, len(pts))
	sy := make([]float64, len(pts))
	for i, p := range pts {
		sx[i], sy[i] = p.x, p.y
	}

	single, err := OLS(sx, sy)
	if err != nil {
		return PiecewiseFit{}, err
	}
	best := PiecewiseFit{Threshold: sx[len(sx)-1], Small: single, Large: single, RMSE: single.RMSE}

	// Candidate split after index i: left = [0..i], right = (i..n).
	for i := 1; i < len(sx)-2; i++ {
		if sx[i] == sx[i+1] {
			continue // threshold must separate distinct x values
		}
		left, errL := OLS(sx[:i+1], sy[:i+1])
		right, errR := OLS(sx[i+1:], sy[i+1:])
		if errL != nil || errR != nil {
			continue
		}
		// Combined RMSE over all points.
		sse := 0.0
		for j := range sx {
			var pred float64
			if j <= i {
				pred = left.Predict(sx[j])
			} else {
				pred = right.Predict(sx[j])
			}
			r := sy[j] - pred
			sse += r * r
		}
		rmse := math.Sqrt(sse / float64(len(sx)))
		if rmse < best.RMSE {
			best = PiecewiseFit{Threshold: sx[i], Small: left, Large: right, RMSE: rmse}
		}
	}
	return best, nil
}

// Summary bundles descriptive statistics of a sample.
type Summary struct {
	N            int
	Mean, Median float64
	Min, Max     float64
	StdDev       float64
}

// Summarize computes a Summary of xs; an empty slice yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		StdDev: StdDev(xs),
	}
}

// String renders the summary compactly for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g med=%.4g min=%.4g max=%.4g sd=%.4g",
		s.N, s.Mean, s.Median, s.Min, s.Max, s.StdDev)
}
