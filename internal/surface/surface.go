// Package surface precomputes the paper's slowdown mixtures over a
// dense grid so the steady-state serving path answers with a
// bounds-checked table lookup plus linear interpolation instead of a
// Poisson-binomial DP per cold key.
//
// The precomputed domain is the homogeneous contender class: p
// identical contenders, each communicating a fraction f of the time and
// spending none of it in local I/O. Over that class the mixtures are
// smooth functions of (p, f) — for the computation slowdown, one such
// function per calibrated delay^{i,j} column — so a 1D grid in f per
// (p, column) captures them completely. Grid nodes are evaluated with
// the exact package-core mixture functions (the one slowdown kernel the
// Predictor also calls), which makes surface answers bit-exact at the
// nodes; between nodes linear interpolation applies, with the error
// bound measured at build time (see Stats.MaxRelError) and pinned by
// test to ≤ 1e-3 relative.
//
// Grid geometry: f_k = k/Cells for k = 0..Cells with Cells a power of
// two, so any query fraction that is itself a dyadic rational k/Cells
// (every fraction the loadgen corpus or a percentage-quantized client
// produces) lands exactly on a node and is answered bit-exactly.
//
// Staleness: a surface is stamped with core.TablesChecksum of the
// tables it was built from. Predictor.MarkStale invalidates it;
// ClearStale revalidates it only through the checksum gate, so a
// surface built from superseded tables can never serve a fresh
// predictor (see core.SlowdownSurface).
package surface

import (
	"fmt"
	"math"
	"sync/atomic"

	"contention/internal/core"
)

// Config sizes the precomputed grid.
type Config struct {
	// MaxContenders is the largest homogeneous contender count the
	// surface covers (queries beyond it miss to the DP path). Default 16.
	MaxContenders int
	// GridCells is the number of grid intervals in the comm-fraction
	// axis; the grid has GridCells+1 nodes at f = k/GridCells. Must be a
	// power of two so dyadic query fractions hit nodes exactly.
	// Default 512.
	GridCells int
	// ErrorSampleStride controls build-time interpolation-error
	// measurement: every stride-th interval's midpoint is evaluated
	// exactly and compared against the interpolant. Default 7 (coprime
	// to the power-of-two cell count, so sampling drifts across rows).
	// Set negative to skip measurement.
	ErrorSampleStride int
}

func (c Config) withDefaults() Config {
	if c.MaxContenders == 0 {
		c.MaxContenders = 16
	}
	if c.GridCells == 0 {
		c.GridCells = 512
	}
	if c.ErrorSampleStride == 0 {
		c.ErrorSampleStride = 7
	}
	return c
}

// Stats describes a built surface.
type Stats struct {
	MaxContenders int
	GridCells     int
	Columns       int     // calibrated delay^{i,j} columns covered
	Fills         int     // grid nodes evaluated via the DP at build time
	MaxRelError   float64 // largest sampled midpoint interpolation error
	Checksum      uint64
}

// Surface is an immutable precomputed slowdown surface plus a validity
// latch. All lookup methods are goroutine-safe and allocation-free.
type Surface struct {
	checksum uint64
	cells    int
	maxP     int
	jGrid    []int
	valid    atomic.Bool

	// comm[p][k]: communication slowdown for p contenders at f=k/cells.
	comm [][]float64
	// comp[col][p][k]: computation slowdown per delay^{i,j} column.
	comp map[int][][]float64
	// comp0[p]: computation slowdown at f=0, where the DP skips column
	// resolution entirely (mirrored here so f=0 answers match it even
	// on calibrations with no delay^{i,j} columns).
	comp0 []float64

	stats Stats
}

// Build evaluates the full grid from the given delay tables. The
// tables must be valid (a lenient predictor with broken tables answers
// from the p+1 fallback, which needs no surface). Every node is
// evaluated through one core.Predictor over the tables — the kernel the
// predictions run, with the tables validated and the j grid sorted once,
// not per node.
func Build(t core.DelayTables, cfg Config) (*Surface, error) {
	cfg = cfg.withDefaults()
	if cfg.GridCells < 2 || cfg.GridCells&(cfg.GridCells-1) != 0 {
		return nil, fmt.Errorf("surface: grid cells %d must be a power of two ≥ 2", cfg.GridCells)
	}
	if cfg.MaxContenders < 1 {
		return nil, fmt.Errorf("surface: max contenders %d must be positive", cfg.MaxContenders)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("surface: invalid delay tables: %w", err)
	}
	pred := core.NewPredictorLenient(core.Calibration{Tables: t})
	s := &Surface{
		checksum: pred.TablesChecksum(),
		cells:    cfg.GridCells,
		maxP:     cfg.MaxContenders,
		jGrid:    t.JGrid(),
		comm:     make([][]float64, cfg.MaxContenders+1),
		comp:     make(map[int][][]float64, len(t.CommOnComp)),
		comp0:    make([]float64, cfg.MaxContenders+1),
	}
	cs := make([]core.Contender, 0, cfg.MaxContenders)
	fills := 0
	maxErr := 0.0
	sample := func(row []float64, eval func(f float64) (float64, error)) error {
		if cfg.ErrorSampleStride < 0 {
			return nil
		}
		for k := 0; k+1 <= s.cells; k += cfg.ErrorSampleStride {
			mid := (float64(k) + 0.5) / float64(s.cells)
			exact, err := eval(mid)
			if err != nil {
				return err
			}
			approx := row[k] + (mid*float64(s.cells)-float64(k))*(row[k+1]-row[k])
			if rel := math.Abs(approx-exact) / exact; rel > maxErr {
				maxErr = rel
			}
		}
		return nil
	}
	fillRow := func(p int, eval func(f float64) (float64, error)) ([]float64, error) {
		row := make([]float64, s.cells+1)
		for k := 0; k <= s.cells; k++ {
			v, err := eval(float64(k) / float64(s.cells))
			if err != nil {
				return nil, err
			}
			row[k] = v
			fills++
		}
		return row, sample(row, eval)
	}
	for p := 0; p <= cfg.MaxContenders; p++ {
		cs = cs[:p]
		for i := range cs {
			cs[i] = core.Contender{}
		}
		homog := func(f float64) []core.Contender {
			for i := range cs {
				cs[i].CommFraction = f
			}
			return cs
		}
		var err error
		if s.comm[p], err = fillRow(p, func(f float64) (float64, error) {
			return pred.CommSlowdown(homog(f))
		}); err != nil {
			return nil, err
		}
		// f=0 computation slowdown: no contender communicates, so the
		// column never matters; any j works, even with no columns at all.
		v, err := pred.CompSlowdownWithJ(homog(0), 0)
		if err != nil {
			return nil, err
		}
		s.comp0[p] = v
		fills++
		for _, col := range s.jGrid {
			col := col
			row, err := fillRow(p, func(f float64) (float64, error) {
				return pred.CompSlowdownWithJ(homog(f), col)
			})
			if err != nil {
				return nil, err
			}
			s.comp[col] = append(s.comp[col], row)
		}
	}
	s.stats = Stats{
		MaxContenders: cfg.MaxContenders,
		GridCells:     cfg.GridCells,
		Columns:       len(s.jGrid),
		Fills:         fills,
		MaxRelError:   maxErr,
		Checksum:      s.checksum,
	}
	s.valid.Store(true)
	mBuilds.Inc()
	mFills.Add(int64(fills))
	return s, nil
}

// Stats returns the build statistics.
func (s *Surface) Stats() Stats { return s.stats }

// Checksum implements core.SlowdownSurface.
func (s *Surface) Checksum() uint64 { return s.checksum }

// Valid implements core.SlowdownSurface.
func (s *Surface) Valid() bool { return s.valid.Load() }

// Invalidate implements core.SlowdownSurface.
func (s *Surface) Invalidate() {
	if s.valid.Swap(false) {
		mInvalidations.Inc()
	}
}

// Revalidate implements core.SlowdownSurface: lookups resume only if
// the caller's tables still checksum to what this surface was built
// from.
func (s *Surface) Revalidate(checksum uint64) bool {
	if checksum != s.checksum {
		return false
	}
	if !s.valid.Swap(true) {
		mRevalidations.Inc()
	}
	return true
}

// interp evaluates the row's piecewise-linear interpolant at f∈[0,1].
// Dyadic fractions k/cells hit frac==0 and return the node bit-exactly.
func interp(row []float64, cells int, f float64) float64 {
	x := f * float64(cells)
	k := int(x)
	if k >= cells {
		return row[cells]
	}
	frac := x - float64(k)
	if frac == 0 {
		return row[k]
	}
	return row[k] + frac*(row[k+1]-row[k])
}

// Comm implements core.SlowdownSurface.
func (s *Surface) Comm(p int, f float64) (float64, bool) {
	if !s.valid.Load() || p < 0 || p > s.maxP || !(f >= 0 && f <= 1) {
		return 0, false
	}
	return interp(s.comm[p], s.cells, f), true
}

// CompWithJ implements core.SlowdownSurface. Column resolution uses the
// same core.NearestJ the DP path uses, so both select the same
// delay^{i,j} column for any message size.
func (s *Surface) CompWithJ(p int, f float64, words int) (float64, bool) {
	if !s.valid.Load() || p < 0 || p > s.maxP || !(f >= 0 && f <= 1) {
		return 0, false
	}
	if f == 0 {
		return s.comp0[p], true
	}
	col, err := core.NearestJ(s.jGrid, words)
	if err != nil {
		return 0, false
	}
	return interp(s.comp[col][p], s.cells, f), true
}
