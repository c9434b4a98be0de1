package contention

import (
	"contention/internal/apps"
)

// Benchmark applications (see internal/apps).
type (
	// CM2Program is an instruction-level profile of a CM2 application.
	CM2Program = apps.CM2Program
	// CM2Segment is one serial→parallel phase of a CM2 program.
	CM2Segment = apps.Segment
)

// MakeLaplaceGrid builds an M×M Laplace test grid (top edge at 100).
func MakeLaplaceGrid(m int) ([][]float64, error) { return apps.MakeLaplaceGrid(m) }

// SORSolve runs red-black SOR in place, returning the final residual.
func SORSolve(grid [][]float64, omega float64, iters int) (float64, error) {
	return apps.SORSolve(grid, omega, iters)
}

// SORWork returns the dedicated front-end execution time of iters SOR
// sweeps on an M×M grid (the profile behind dcomp_sun).
func SORWork(m, iters int) float64 { return apps.SORWork(m, iters) }

// GaussSolve performs Gaussian elimination with partial pivoting on the
// augmented system [a | b], returning the solution vector.
func GaussSolve(a [][]float64, b []float64) ([]float64, error) { return apps.GaussSolve(a, b) }

// MakeDiagonallyDominant builds a well-conditioned n×n test system with
// known solution x[i] = i+1.
func MakeDiagonallyDominant(n int) ([][]float64, []float64) {
	return apps.MakeDiagonallyDominant(n)
}

// GaussCM2Program profiles Gaussian elimination on an M×(M+1) matrix
// for the CM2 platform.
func GaussCM2Program(m int) CM2Program { return apps.GaussCM2Program(m) }

// RunCM2 executes a CM2 program on the simulated platform, returning
// elapsed virtual time plus the back-end busy and idle times.
func RunCM2(p *Proc, plat *SunCM2, prog CM2Program) (elapsed, busy, idle float64) {
	return apps.RunCM2(p, plat, prog)
}
