package experiments

import (
	"sync"

	"contention/internal/calibrate"
	"contention/internal/core"
	"contention/internal/platform"
	"contention/internal/runner"
)

// Env bundles the platform parameters and the calibrations every driver
// shares. Calibration runs once per Env (it is static per platform, as
// in the paper); its probes fan out on calibrate's own GOMAXPROCS pool,
// not on Pool, and give the same bits at any width.
type Env struct {
	ParagonParams platform.ParagonParams
	CM2Params     platform.CM2Params

	// Cal is the Sun/Paragon calibration (α/β per direction + delay tables).
	Cal core.Calibration
	// CM2Model is the Sun/CM2 dedicated transfer model.
	CM2Model core.CommModel
	// Opts records the calibration options used.
	Opts calibrate.Options
	// Pred is the shared predictor over Cal. It is goroutine-safe and
	// stateless per call, so every driver draws from the one instance.
	Pred *core.Predictor
	// Pool is the worker pool drivers fan sweep points out on. nil (or
	// runner.Serial()) runs everything inline; the parallel pool
	// produces byte-identical results in the same order, because every
	// sweep point simulates on its own DES kernel with locally seeded
	// RNGs and results are assembled by index.
	Pool *runner.Pool

	// dedicated is set on the copy of the Env a suite pass runs on (see
	// forPass) and nil on every Env a caller holds.
	dedicated *dedicatedMemo
}

// pool returns the fan-out pool, defaulting to serial.
func (e *Env) pool() *runner.Pool { return e.Pool }

// NewEnv calibrates both platforms and returns the shared environment.
func NewEnv() (*Env, error) {
	pparams := platform.DefaultParagonParams(platform.OneHop)
	opts := calibrate.DefaultOptions(pparams)
	cal, err := calibrate.Run(opts)
	if err != nil {
		return nil, err
	}
	cm2Params := platform.DefaultCM2Params()
	cm2Model, err := calibrate.CalibrateCM2(calibrate.DefaultCM2Options(cm2Params))
	if err != nil {
		return nil, err
	}
	pred, err := core.NewPredictor(cal)
	if err != nil {
		return nil, err
	}
	return &Env{
		ParagonParams: pparams,
		CM2Params:     cm2Params,
		Cal:           cal,
		CM2Model:      cm2Model,
		Opts:          opts,
		Pred:          pred,
	}, nil
}

var (
	sharedEnv  *Env
	sharedErr  error
	sharedOnce sync.Once
)

// SharedEnv returns a lazily created process-wide Env, so tests and
// benchmarks pay the calibration cost once. The shared Env is serial;
// use WithPool for a parallel view of it.
func SharedEnv() (*Env, error) {
	sharedOnce.Do(func() { sharedEnv, sharedErr = NewEnv() })
	return sharedEnv, sharedErr
}

// WithPool returns a shallow copy of the Env that fans out on p. The
// calibrations and the predictor stay shared.
func (e *Env) WithPool(p *runner.Pool) *Env {
	c := *e
	c.Pool = p
	return &c
}
