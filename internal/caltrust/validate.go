package caltrust

import (
	"fmt"
	"math"

	"contention/internal/core"
)

// The strict invariant validation's tolerances.
const (
	// monotoneSlack is the relative dip tolerated between consecutive
	// delay-table entries before non-monotonicity is fatal: entry i+1
	// may undercut entry i by at most monotoneSlack·(1 + entry i).
	// Calibration measurements carry jitter; a small dip is noise, a
	// large one means the table is physically impossible (more
	// contenders cannot reduce contention).
	monotoneSlack = 0.15
	// breakpointSlack is the relative mismatch tolerated between the
	// two comm-model pieces evaluated at the threshold before the
	// breakpoint is flagged (as a warning: a discontinuous fit predicts
	// inconsistently around the knee but is still usable).
	breakpointSlack = 0.35
)

// Validate runs the trust layer's strict invariant validation over a
// calibration: everything core validates (finite, non-negative, β > 0)
// plus monotone delay tables and consistent comm-model breakpoints.
// All findings are merged into one structured report.
func Validate(cal core.Calibration) *core.ValidationReport {
	r := cal.ValidateReport()
	checkMonotone(r, "Tables.CompOnComm", cal.Tables.CompOnComm)
	checkMonotone(r, "Tables.CommOnComm", cal.Tables.CommOnComm)
	for _, j := range cal.Tables.JGrid() {
		checkMonotone(r, fmt.Sprintf("Tables.CommOnComp[%d]", j), cal.Tables.CommOnComp[j])
	}
	checkBreakpoint(r, "ToBack", cal.ToBack)
	checkBreakpoint(r, "ToHost", cal.ToHost)
	return r
}

// checkMonotone enforces that delays do not decrease with contender
// count beyond monotoneSlack. Entries already flagged as non-finite by
// the core pass are skipped to avoid duplicate noise.
func checkMonotone(r *core.ValidationReport, path string, xs []float64) {
	for i := 1; i < len(xs); i++ {
		prev, cur := xs[i-1], xs[i]
		if math.IsNaN(prev) || math.IsNaN(cur) || math.IsInf(prev, 0) || math.IsInf(cur, 0) {
			continue
		}
		if cur < prev-monotoneSlack*(1+prev) {
			r.Add(fmt.Sprintf("%s[%d]", path, i),
				"delay %v under %d contenders falls below %v under %d — contention cannot decrease with load",
				cur, i+1, prev, i)
		}
	}
}

// checkBreakpoint flags comm models whose two pieces disagree grossly
// at the threshold (a physically implausible discontinuity in the cost
// of a threshold-sized message).
func checkBreakpoint(r *core.ValidationReport, path string, m core.CommModel) {
	if m.Validate() != nil {
		return // structural violations already reported by core
	}
	if m.Threshold >= math.MaxInt/2 {
		return // single-piece model: no breakpoint to be inconsistent at
	}
	small := m.Small.Time(m.Threshold)
	large := m.Large.Time(m.Threshold)
	if small <= 0 || large <= 0 {
		return
	}
	if diff := math.Abs(small-large) / math.Max(small, large); diff > breakpointSlack {
		r.Warn(path+".Threshold",
			"pieces disagree by %.0f%% at the %d-word breakpoint (%.4g vs %.4g s)",
			100*diff, m.Threshold, small, large)
	}
}
