// Package core implements the contention model of Figueira & Berman
// (HPDC'96): slowdown factors that adjust dedicated-mode computation and
// communication costs for the load on a non-dedicated two-machine
// heterogeneous platform.
//
// The model has three ingredients:
//
//   - A dedicated communication-cost model: per data set,
//     N × (α + size/β), with (α, β) taken from one of two linear pieces
//     split at a system-dependent threshold (1024 words on the
//     Sun/Paragon).
//   - System-dependent delay tables, measured once per platform by the
//     calibration suite (package calibrate): delay^i_comp (delay imposed
//     on communication by i computing applications), delay^i_comm
//     (imposed on communication by i communicating applications), and
//     delay^{i,j}_comm (imposed on computation by i applications
//     communicating with j-word messages).
//   - Application-dependent workload parameters: each contender's
//     fraction of time spent communicating and its message size, from
//     which Poisson-binomial probabilities pcomp_i / pcomm_i are derived
//     (package prob).
//
// For the tightly coupled Sun/CM2 platform contention reduces to CPU
// sharing, and the slowdown is simply p+1; back-end execution follows
// T_cm2 = max(dcomp_cm2 + didle_cm2, dserial_cm2 × slowdown).
package core

import (
	"errors"
	"fmt"
	"math"
)

// DataSet is a group of same-sized messages: N messages of Words words
// each, the paper's application-dependent communication description.
type DataSet struct {
	N     int
	Words int
}

// Validate reports whether the data set is well-formed.
func (d DataSet) Validate() error {
	if d.N < 0 {
		return fmt.Errorf("core: data set count %d negative", d.N)
	}
	if d.Words < 0 {
		return fmt.Errorf("core: data set size %d negative", d.Words)
	}
	return nil
}

// CommPiece is one linear piece of the communication-cost model:
// cost(words) = Alpha + words/Beta.
type CommPiece struct {
	Alpha float64 // startup time, seconds
	Beta  float64 // effective bandwidth, words/second
}

// Time evaluates the piece for one message.
func (p CommPiece) Time(words int) float64 {
	return p.Alpha + float64(words)/p.Beta
}

// CommModel is the paper's piecewise-linear dedicated communication
// model: messages of Threshold or fewer words use Small, larger
// messages use Large. A single-piece model sets both pieces equal.
type CommModel struct {
	Threshold int
	Small     CommPiece
	Large     CommPiece
}

// Uniform returns a single-piece model with the given parameters.
func Uniform(alpha, beta float64) CommModel {
	p := CommPiece{Alpha: alpha, Beta: beta}
	return CommModel{Threshold: math.MaxInt, Small: p, Large: p}
}

// ValidateReport checks the model parameters, returning every
// violation found as a structured report.
func (m CommModel) ValidateReport() *ValidationReport {
	r := &ValidationReport{}
	piece := func(path string, p CommPiece) {
		if !(p.Beta > 0) || math.IsInf(p.Beta, 0) { // rejects NaN and ±Inf too
			r.Add(path+".Beta", "bandwidth %v must be positive and finite", p.Beta)
		}
		if p.Alpha < 0 || math.IsNaN(p.Alpha) || math.IsInf(p.Alpha, 0) {
			r.Add(path+".Alpha", "startup %v must be non-negative and finite", p.Alpha)
		}
	}
	piece("Small", m.Small)
	piece("Large", m.Large)
	if m.Threshold <= 0 {
		r.Add("Threshold", "threshold %d must be positive", m.Threshold)
	}
	return r
}

// Validate checks the model parameters.
func (m CommModel) Validate() error { return m.ValidateReport().Err() }

// MessageTime returns the dedicated cost of one message.
func (m CommModel) MessageTime(words int) float64 {
	if words <= m.Threshold {
		return m.Small.Time(words)
	}
	return m.Large.Time(words)
}

// Dedicated returns dcomm for a set of data sets:
// Σ over data sets of N_i × (α + size_i/β) with the piece chosen by size.
func (m CommModel) Dedicated(sets []DataSet) (float64, error) {
	total := 0.0
	for _, s := range sets {
		if err := s.Validate(); err != nil {
			return 0, err
		}
		total += float64(s.N) * m.MessageTime(s.Words)
	}
	return total, nil
}

// Contender describes one extra application on the front-end: the
// fraction of time it spends communicating with the back-end machine
// (the rest is computation) and the message size it uses. These are the
// paper's application-dependent parameters, supplied by the user or
// derived from the application's dedicated cost estimates.
type Contender struct {
	CommFraction float64
	MsgWords     int
	// IOFraction is the fraction of time the contender spends blocked
	// on local I/O — the load-characteristics extension (§1 argues
	// CPU- vs I/O-bound must be distinguished; §4 lists I/O as a model
	// extension). Time spent in I/O loads neither the CPU nor the
	// link, so it contributes to neither pcomp nor pcomm.
	IOFraction float64
}

// CompFraction is the fraction of time the contender computes.
func (c Contender) CompFraction() float64 { return 1 - c.CommFraction - c.IOFraction }

// Validate checks the contender parameters.
func (c Contender) Validate() error {
	if c.CommFraction < 0 || c.CommFraction > 1 || math.IsNaN(c.CommFraction) {
		return fmt.Errorf("core: comm fraction %v out of [0,1]", c.CommFraction)
	}
	if c.IOFraction < 0 || c.IOFraction > 1 || math.IsNaN(c.IOFraction) {
		return fmt.Errorf("core: I/O fraction %v out of [0,1]", c.IOFraction)
	}
	if c.CommFraction+c.IOFraction > 1 {
		return fmt.Errorf("core: comm %v + I/O %v fractions exceed 1", c.CommFraction, c.IOFraction)
	}
	if c.MsgWords < 0 {
		return fmt.Errorf("core: message size %d negative", c.MsgWords)
	}
	return nil
}

// smallMessageLimit is the paper's footnote 2: the j=1 delay column is
// only used for message sizes below 95 words.
const smallMessageLimit = 95

// DelayTables holds the system-dependent delays measured by the
// calibration suite. Index convention: element [i-1] is the delay
// imposed by i contenders, so a table of length n covers 1..n
// contenders. Lookups beyond the table clamp to the last entry.
type DelayTables struct {
	// CompOnComm[i-1] = delay^i_comp: average extra delay (as a fraction
	// of dedicated cost) imposed on communication by i applications
	// computing on the front-end.
	CompOnComm []float64
	// CommOnComm[i-1] = delay^i_comm: average extra delay imposed on
	// communication by i applications communicating with the back end
	// (averaged over both transfer directions, per the paper).
	CommOnComm []float64
	// CommOnComp maps a calibrated message size j to the table whose
	// [i-1] entry is delay^{i,j}_comm: the delay imposed on computation
	// by i applications communicating with j-word messages. The paper
	// calibrates j ∈ {1, 500, 1000}.
	CommOnComp map[int][]float64
}

// ValidateReport checks table invariants — every entry finite and
// non-negative, every j key positive — returning all violations found.
// Paths are rendered only for violations: the package-level slowdown
// functions validate their tables on every call.
func (t DelayTables) ValidateReport() *ValidationReport {
	r := &ValidationReport{}
	check := func(xs []float64, path func(i int) string) {
		for i, v := range xs {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				r.Add(path(i), "delay %v must be finite and non-negative", v)
			}
		}
	}
	check(t.CompOnComm, func(i int) string { return fmt.Sprintf("CompOnComm[%d]", i) })
	check(t.CommOnComm, func(i int) string { return fmt.Sprintf("CommOnComm[%d]", i) })
	for j, xs := range t.CommOnComp {
		if j <= 0 {
			r.Add(fmt.Sprintf("CommOnComp[%d]", j), "message-size key must be positive")
		}
		check(xs, func(i int) string { return fmt.Sprintf("CommOnComp[%d][%d]", j, i) })
	}
	return r
}

// Validate checks table invariants.
func (t DelayTables) Validate() error { return t.ValidateReport().Err() }

func lookup(table []float64, i int) float64 {
	if len(table) == 0 || i <= 0 {
		return 0
	}
	if i > len(table) {
		i = len(table)
	}
	return table[i-1]
}

// JGrid returns the calibrated message sizes available in CommOnComp,
// in ascending order.
func (t DelayTables) JGrid() []int {
	grid := make([]int, 0, len(t.CommOnComp))
	for j := range t.CommOnComp {
		grid = append(grid, j)
	}
	for i := 1; i < len(grid); i++ {
		for k := i; k > 0 && grid[k] < grid[k-1]; k-- {
			grid[k], grid[k-1] = grid[k-1], grid[k]
		}
	}
	return grid
}

// errNoJColumns is the "no delay^{i,j} columns" failure.
var errNoJColumns = errors.New("core: no delay^{i,j} columns calibrated")

// NearestJ selects the calibrated j column closest to the requested
// message size, applying the paper's footnote: the j=1 column is only
// eligible when the size is below 95 words.
func (t DelayTables) NearestJ(words int) (int, error) {
	return NearestJ(t.JGrid(), words)
}

// CommOnCompDelay returns delay^{i,j}_comm for i contenders using the
// calibrated column nearest to words.
func (t DelayTables) CommOnCompDelay(i, words int) (float64, error) {
	j, err := t.NearestJ(words)
	if err != nil {
		return 0, err
	}
	return lookup(t.CommOnComp[j], i), nil
}

// SimpleSlowdown is the CM2-platform slowdown: p extra CPU-bound
// processes on a fair-shared CPU slow everything by p+1.
func SimpleSlowdown(p int) float64 {
	if p < 0 {
		panic(fmt.Sprintf("core: negative contender count %d", p))
	}
	return float64(p + 1)
}

// CommSlowdown is the Sun/Paragon communication slowdown:
//
//	1 + Σ_i pcomp_i × delay^i_comp + Σ_i pcomm_i × delay^i_comm.
func CommSlowdown(cs []Contender, t DelayTables) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	return commMixture(cs, t.CompOnComm, t.CommOnComm)
}

// CompSlowdown is the Sun/Paragon computation slowdown:
//
//	1 + Σ_i pcomp_i × i + Σ_i pcomm_i × delay^{i,j}_comm,
//
// where j is the maximum message size used by the contenders (the
// paper's guidance). Use CompSlowdownWithJ to force a specific j.
func CompSlowdown(cs []Contender, t DelayTables) (float64, error) {
	return CompSlowdownWithJ(cs, t, autoJ(cs))
}

// CompSlowdownWithJ is CompSlowdown with an explicit message size used
// to select the delay^{i,j} column (the paper's Figures 7–8 sweep j to
// show its importance).
func CompSlowdownWithJ(cs []Contender, t DelayTables, j int) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	return compMixture(cs, t.CommOnComp, t.JGrid(), j)
}

// CM2ExecTime is the paper's back-end execution law:
//
//	T_cm2 = max(dcomp_cm2 + didle_cm2, dserial_cm2 × (p+1)),
//
// where dcomp is the dedicated parallel-instruction time, didle the
// dedicated back-end idle time, dserial the dedicated front-end
// serial/scalar time, and p the number of extra CPU-bound processes on
// the front-end.
func CM2ExecTime(dcomp, didle, dserial float64, p int) float64 {
	return math.Max(dcomp+didle, dserial*SimpleSlowdown(p))
}

// CM2CommTime scales a dedicated CM2 transfer cost by the CPU slowdown:
// element-by-element transfers are driven entirely by the front-end CPU.
func CM2CommTime(dcomm float64, p int) float64 {
	return dcomm * SimpleSlowdown(p)
}

// ShouldOffload is the paper's Equation (1): execute the task on the
// back-end machine only when the host time exceeds back-end time plus
// both transfer costs.
func ShouldOffload(tHost, tBack, cTo, cFrom float64) bool {
	return tHost > tBack+cTo+cFrom
}
