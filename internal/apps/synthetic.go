package apps

import (
	"fmt"
	"math/rand"
)

// SyntheticSpec controls random CM2 program generation — the paper's
// "synthetic benchmarks, which employ a representative subset of the
// operations provided by the CM2", used to verify the generality of the
// execution-time model beyond SOR and Gaussian elimination.
type SyntheticSpec struct {
	// Seed makes the program reproducible.
	Seed int64
	// Segments is the number of serial→parallel phases.
	Segments int
	// SerialMeanOps is the mean serial scalar work per segment (ops).
	SerialMeanOps float64
	// ParallelMean is the mean parallel instruction duration (seconds).
	ParallelMean float64
	// SyncEvery inserts a reduction (front-end waits for the back-end)
	// every n-th segment; 0 disables.
	SyncEvery int
}

// Validate checks the spec.
func (s SyntheticSpec) Validate() error {
	if s.Segments < 1 {
		return fmt.Errorf("apps: synthetic segments %d must be ≥ 1", s.Segments)
	}
	if s.SerialMeanOps < 0 || s.ParallelMean < 0 {
		return fmt.Errorf("apps: negative synthetic means (%v ops, %v s)", s.SerialMeanOps, s.ParallelMean)
	}
	if s.SyncEvery < 0 {
		return fmt.Errorf("apps: negative sync interval %d", s.SyncEvery)
	}
	return nil
}

// DefaultSyntheticSpec returns a mid-weight program skeleton.
func DefaultSyntheticSpec(seed int64) SyntheticSpec {
	return SyntheticSpec{
		Seed:          seed,
		Segments:      80,
		SerialMeanOps: 2000,
		ParallelMean:  2e-3,
		SyncEvery:     16,
	}
}

// syntheticBurstiness in [0,1) controls how unevenly work spreads
// across segments (0 = uniform).
const syntheticBurstiness = 0.5

// SyntheticCM2Program generates a reproducible random CM2 program from
// the spec. Serial and parallel weights are drawn independently so the
// serial/parallel balance varies across programs — exactly the
// dimension along which the max() execution law must stay accurate.
func SyntheticCM2Program(spec SyntheticSpec) (CM2Program, error) {
	if err := spec.Validate(); err != nil {
		return CM2Program{}, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	jitter := func(mean float64) float64 {
		if mean == 0 {
			return 0
		}
		// Uniform in [mean(1-b), mean(1+3b)]: right-skewed for b > 0.
		lo := mean * (1 - syntheticBurstiness)
		hi := mean * (1 + 3*syntheticBurstiness)
		return lo + rng.Float64()*(hi-lo)
	}
	segs := make([]Segment, 0, spec.Segments)
	for i := 0; i < spec.Segments; i++ {
		segs = append(segs, Segment{
			Serial:   jitter(spec.SerialMeanOps) / SunOpsRate,
			Parallel: jitter(spec.ParallelMean),
		})
	}
	prog := CM2Program{
		Name:     fmt.Sprintf("synthetic-%d", spec.Seed),
		Segments: segs,
	}
	if spec.SyncEvery > 0 {
		prog.SyncEvery = spec.SyncEvery
	}
	return prog, nil
}
