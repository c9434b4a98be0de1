package calibrate

import (
	"errors"
	"fmt"

	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/workload"
)

// CM2Options controls the Sun/CM2 calibration benchmarks.
type CM2Options struct {
	Params platform.CM2Params
	// BigWords is the large-array benchmark size (the paper uses 10⁶).
	BigWords int
	// SmallCount is the number of one-word arrays in the startup
	// benchmark (the paper uses 10⁶; scaled down for simulation speed —
	// per-message cost is what matters, and it is count-invariant here).
	SmallCount int
}

// DefaultCM2Options returns the suite defaults.
func DefaultCM2Options(params platform.CM2Params) CM2Options {
	return CM2Options{Params: params, BigWords: 1e6, SmallCount: 1e4}
}

// CalibrateCM2 measures the Sun/CM2 communication model by the paper's
// two benchmarks:
//
//  1. Transfer one array of BigWords words; with startup negligible at
//     that size, β ≈ BigWords / elapsed.
//  2. Transfer SmallCount one-word arrays; the per-array cost minus the
//     one-word payload time gives α.
//
// Both run in dedicated mode on a fresh simulated platform.
func CalibrateCM2(opts CM2Options) (core.CommModel, error) {
	if opts.BigWords < 1000 {
		return core.CommModel{}, fmt.Errorf("calibrate: big benchmark %d words too small", opts.BigWords)
	}
	if opts.SmallCount < 100 {
		return core.CommModel{}, fmt.Errorf("calibrate: small benchmark count %d too small", opts.SmallCount)
	}

	// Benchmark 1: one large array.
	big, err := cm2Elapsed(opts.Params, func(p *des.Proc, plat *platform.SunCM2) {
		plat.Transfer(p, opts.BigWords)
	})
	if err != nil {
		return core.CommModel{}, err
	}

	// Benchmark 2: many one-word arrays.
	small, err := cm2Elapsed(opts.Params, func(p *des.Proc, plat *platform.SunCM2) {
		plat.TransferMessages(p, opts.SmallCount, 1)
	})
	if err != nil {
		return core.CommModel{}, err
	}

	beta := float64(opts.BigWords) / big
	perSmall := small / float64(opts.SmallCount)
	alpha := perSmall - 1/beta
	if alpha < 0 {
		alpha = 0
	}
	if beta <= 0 {
		return core.CommModel{}, errors.New("calibrate: non-positive fitted CM2 bandwidth")
	}
	return core.Uniform(alpha, beta), nil
}

func cm2Elapsed(params platform.CM2Params, body func(*des.Proc, *platform.SunCM2)) (float64, error) {
	k := des.New()
	defer k.Close()
	plat, err := platform.NewSunCM2(k, params)
	if err != nil {
		return 0, err
	}
	return workload.Measure(k, "CM2 benchmark", 0, func(p *des.Proc) float64 {
		start := p.Now()
		body(p, plat)
		return p.Now() - start
	})
}
