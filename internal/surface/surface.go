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
// (p, column) captures them completely. The grid is built a comm
// fraction at a time: one core.Predictor.HomogeneousSweep per fraction,
// one DP that yields every p and every mixture with the kernel's own
// step and sums, which makes surface answers bit-exact at the nodes;
// between nodes linear interpolation applies, with the error
// bound measured at build time (see Stats.MaxRelError) and pinned by
// test to ≤ 1e-3 relative.
//
// Grid geometry: f_k = k/Cells for k = 0..Cells with Cells a power of
// two. Only a query fraction that is itself k/Cells lands exactly on a
// node and is answered bit-exactly; every other one is interpolated.
// The loadgen corpus draws percentages (scenario.Workload's pool), and
// of those only 0, 0.25, 0.5 and 0.75 are nodes of the default
// 512-cell grid.
//
// Staleness: a surface is stamped with core.TablesChecksum of the
// tables it was built from, and Predictor.AttachSurface refuses a
// surface of other tables, so a surface built from superseded tables
// can never serve a recalibrated predictor. A surface holds no
// staleness of its own: a stale predictor's Try probes miss before
// they reach it (see core.SlowdownSurface).
package surface

import (
	"fmt"
	"math"

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
}

// errorSampleStride sets build-time interpolation-error measurement:
// every stride-th interval's midpoint is evaluated exactly and compared
// against the interpolant. 7 is coprime to the power-of-two cell count,
// so sampling drifts across rows.
const errorSampleStride = 7

func (c Config) withDefaults() Config {
	if c.MaxContenders == 0 {
		c.MaxContenders = 16
	}
	if c.GridCells == 0 {
		c.GridCells = 512
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

// Surface is an immutable precomputed slowdown surface. All lookup
// methods are goroutine-safe and allocation-free.
type Surface struct {
	checksum uint64
	cells    int
	maxP     int
	jGrid    []int

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
// from the p+1 fallback, which needs no surface). The grid is priced a
// comm fraction at a time: one core.Predictor.HomogeneousSweep per node
// fraction yields that node of every p and every mixture, the kernel's
// bits, and one per sampled midpoint yields the interpolation error of
// every row at once.
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
	n, cells, cols := cfg.MaxContenders+1, float64(cfg.GridCells), len(t.CommOnComp)
	s := &Surface{
		checksum: pred.TablesChecksum(),
		cells:    cfg.GridCells,
		maxP:     cfg.MaxContenders,
		jGrid:    t.JGrid(),
		comm:     rows(n, cfg.GridCells+1),
		comp:     make(map[int][][]float64, cols),
		comp0:    make([]float64, n),
	}
	// One fraction's answers: comm[p], and comp[c][p] for column js[c],
	// whose grid is grids[c]. The last entry of js, j 0, prices comp0 in
	// the f = 0 sweep: nobody communicates there, so no column is
	// consulted, even if none exist.
	js := append(s.jGrid[:cols:cols], 0)
	comm, comp := make([]float64, n), append(rows(cols, n), s.comp0)
	grids := make([][][]float64, cols)
	for c, j := range s.jGrid {
		grids[c] = rows(n, cfg.GridCells+1)
		s.comp[j] = grids[c]
	}
	fills, maxErr := 0, 0.0
	for k := 0; k <= s.cells; k++ {
		priced := cols
		if k == 0 {
			priced++
		}
		if err := pred.HomogeneousSweep(float64(k)/cells, js[:priced], comm, comp[:priced]); err != nil {
			return nil, err
		}
		fills += n * (1 + priced)
		for p, v := range comm {
			s.comm[p][k] = v
			for c, grid := range grids {
				grid[p][k] = comp[c][p]
			}
		}
		// Interval k−1's midpoint, once both its nodes are in: every row's
		// interpolant against the exact value there.
		mk := k - 1
		if mk < 0 || mk%errorSampleStride != 0 {
			continue
		}
		mid := (float64(mk) + 0.5) / cells
		if err := pred.HomogeneousSweep(mid, js[:cols], comm, comp[:cols]); err != nil {
			return nil, err
		}
		for p, v := range comm {
			maxErr = worse(maxErr, s.comm[p], mk, mid*cells, v)
			for c, grid := range grids {
				maxErr = worse(maxErr, grid[p], mk, mid*cells, comp[c][p])
			}
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
	return s, nil
}

// rows returns n zeroed rows of width nodes.
func rows(n, width int) [][]float64 {
	r := make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, width)
	}
	return r
}

// worse is the larger of maxErr and the relative error of row's
// interpolant at x (in cells, inside interval k) against exact.
func worse(maxErr float64, row []float64, k int, x, exact float64) float64 {
	approx := row[k] + (x-float64(k))*(row[k+1]-row[k])
	if rel := math.Abs(approx-exact) / exact; rel > maxErr {
		return rel
	}
	return maxErr
}

// Stats returns the build statistics.
func (s *Surface) Stats() Stats { return s.stats }

// Checksum implements core.SlowdownSurface.
func (s *Surface) Checksum() uint64 { return s.checksum }

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
	if p < 0 || p > s.maxP || !(f >= 0 && f <= 1) {
		return 0, false
	}
	return interp(s.comm[p], s.cells, f), true
}

// CompWithJ implements core.SlowdownSurface. Column resolution uses the
// same core.NearestJ the DP path uses, so both select the same
// delay^{i,j} column for any message size.
func (s *Surface) CompWithJ(p int, f float64, words int) (float64, bool) {
	if p < 0 || p > s.maxP || !(f >= 0 && f <= 1) {
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
