package apps

import (
	"fmt"

	"contention/internal/des"
	"contention/internal/platform"
)

// Paragon-side SOR: the same solver run data-parallel on an MPP
// partition — the back-end alternative the paper's Equation (1) weighs
// against front-end execution.

// SORParagonSpec describes one distributed SOR run.
type SORParagonSpec struct {
	// M is the grid dimension (M×M points, row-partitioned).
	M int
	// Iters is the sweep count.
	Iters int
	// Nodes is the partition size.
	Nodes int
}

// Validate checks the spec.
func (s SORParagonSpec) Validate() error {
	if s.M < 3 {
		return fmt.Errorf("apps: SOR grid %d must be ≥ 3", s.M)
	}
	if s.Iters < 1 {
		return fmt.Errorf("apps: SOR iterations %d must be ≥ 1", s.Iters)
	}
	if s.Nodes < 1 {
		return fmt.Errorf("apps: partition size %d must be ≥ 1", s.Nodes)
	}
	return nil
}

// RunSORParagon executes the distributed SOR profile on the platform's
// MPP: per sweep, a balanced data-parallel update of the row partition
// followed by a halo exchange over the NX fabric (two boundary rows per
// internal partition boundary). It returns the elapsed virtual time.
func RunSORParagon(p *des.Proc, sp *platform.SunParagon, spec SORParagonSpec) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	part, err := sp.MPP.Allocate(fmt.Sprintf("sor-%d", spec.M), spec.Nodes)
	if err != nil {
		return 0, err
	}
	defer part.Release()
	start := p.Now()
	interior := float64((spec.M - 2) * (spec.M - 2))
	workPerSweep := SOROpsPerPoint * interior / SunOpsRate // Sun-relative units
	haloMsgs := 2 * (spec.Nodes - 1)
	for it := 0; it < spec.Iters; it++ {
		part.ComputeTotal(p, workPerSweep)
		for h := 0; h < haloMsgs; h++ {
			sp.MPP.NXSend(p, spec.M)
		}
	}
	return p.Now() - start, nil
}
