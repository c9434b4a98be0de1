// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the "actual" measurement on the
// simulated platform (with emulated contention, as the paper emulated
// contention on production systems) and the model prediction from the
// calibrated parameters, returning both as labelled series together
// with the mean error and the error the paper quotes for the same
// experiment.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"contention/internal/stats"
)

// Series is one labelled curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is one reproduced table or figure.
type Result struct {
	ID     string // "table1", "figure5", ...
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Text carries non-tabular output (the Figure 2 timeline).
	Text string
	// Notes document scenario details and observations.
	Notes []string
	// ModelErrPct maps a comparison label (e.g. "p=3") to the measured
	// MAPE between the model series and the actual series.
	ModelErrPct map[string]float64
	// PaperErrPct is the error the paper quotes for this experiment
	// (0 when the paper gives none).
	PaperErrPct float64
}

// sharedGrid reports whether every series has exactly the X grid of
// the first (same length, same values) and a matching Y per point.
func (r Result) sharedGrid() bool {
	base := r.Series[0].X
	for _, s := range r.Series {
		if len(s.X) != len(base) || len(s.Y) != len(base) {
			return false
		}
		for i, x := range s.X {
			if x != base[i] {
				return false
			}
		}
	}
	return true
}

// Render formats the result as an aligned text table (one row per x,
// one column per series), followed by notes and error lines.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteByte('\n')
		}
	}
	switch {
	case len(r.Series) > 0 && r.sharedGrid():
		// All series share one X grid: one row per x, one column per
		// series.
		fmt.Fprintf(&b, "%12s", r.XLabel)
		for _, s := range r.Series {
			fmt.Fprintf(&b, "  %14s", s.Name)
		}
		b.WriteByte('\n')
		for i, x := range r.Series[0].X {
			fmt.Fprintf(&b, "%12.4g", x)
			for _, s := range r.Series {
				fmt.Fprintf(&b, "  %14.6g", s.Y[i])
			}
			b.WriteByte('\n')
		}
	case len(r.Series) > 0:
		// Ragged X grids: a shared table would silently drop or
		// misalign points, so render every series as its own block.
		for _, s := range r.Series {
			fmt.Fprintf(&b, "-- %s --\n", s.Name)
			fmt.Fprintf(&b, "%12s  %14s\n", r.XLabel, s.Name)
			for i, x := range s.X {
				fmt.Fprintf(&b, "%12.4g", x)
				if i < len(s.Y) {
					fmt.Fprintf(&b, "  %14.6g", s.Y[i])
				}
				b.WriteByte('\n')
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	labels := make([]string, 0, len(r.ModelErrPct))
	for label := range r.ModelErrPct {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Fprintf(&b, "model error (%s): %.1f%%\n", label, r.ModelErrPct[label])
	}
	if r.PaperErrPct > 0 {
		fmt.Fprintf(&b, "paper-quoted error: ≈%.0f%%\n", r.PaperErrPct)
	}
	return b.String()
}

// mape is a convenience wrapper that panics on programmer error (the
// drivers always produce matched series).
func mape(pred, actual []float64) float64 {
	m, err := stats.MAPE(pred, actual)
	if err != nil {
		panic(err)
	}
	return m
}
