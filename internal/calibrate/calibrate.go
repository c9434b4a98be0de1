// Package calibrate is the paper's "system test suite": it measures the
// system-dependent model parameters once per platform by running
// benchmarks against the (simulated) machine pair — exactly the
// procedure the paper runs against the real Sun/CM2 and Sun/Paragon.
//
//   - α and β per direction come from ping-pong bursts over a grid of
//     message sizes, fitted by linear regression; the piecewise
//     threshold is found by exhaustive search (package stats).
//   - delay^i_comp is the extra delay i CPU-bound generators impose on
//     the ping-pong benchmark.
//   - delay^i_comm is the average of the delays imposed on the
//     ping-pong benchmark by i generators streaming one-word messages
//     Sun→Paragon and Paragon→Sun.
//   - delay^{i,j}_comm is the delay imposed on a CPU-bound application
//     by i generators streaming j-word messages, averaged over both
//     directions, for j in a small calibrated grid (the paper uses
//     {1, 500, 1000}).
//
// These values are static per platform; the run-time slowdown
// calculation only combines them with the current workload.
//
// Every measurement is a probe value: RunRobust lists the suite's
// probes once (plan), runs them on a worker pool of its own, each on a
// private simulator kernel, and only then aggregates and bootstraps
// them serially, in a fixed order.
package calibrate

import (
	"errors"
	"fmt"
	"slices"

	"contention/internal/core"
	"contention/internal/des"
	"contention/internal/platform"
	"contention/internal/stats"
	"contention/internal/workload"
)

// Options controls the calibration suite.
type Options struct {
	// Params is the platform under calibration.
	Params platform.ParagonParams
	// BurstCount is the number of messages per ping-pong burst
	// (the paper uses 1000; smaller values speed the suite up).
	BurstCount int
	// Sizes is the message-size grid for the α/β fit (positive,
	// distinct).
	Sizes []int
	// MaxContenders bounds the delay tables (entries for 1..MaxContenders).
	MaxContenders int
	// JGrid lists the message sizes for delay^{i,j} columns (positive,
	// distinct).
	JGrid []int
	// ProbeWords is the message size of the ping-pong probe used for
	// the delay measurements.
	ProbeWords int
	// ProbeWork is the CPU-bound probe duration (dedicated seconds)
	// used for delay^{i,j}.
	ProbeWork float64
	// Warmup lets contenders reach steady state before measuring.
	Warmup float64

	// Repeats is the number of measurements taken per point, each with
	// a deterministically jittered probe phase; 0 or 1 keeps the
	// single-shot behavior. The robust aggregation below only has
	// teeth when Repeats > 1.
	Repeats int
	// TrimFraction is trimmed per tail when aggregating repeated
	// measurements (0 = plain mean).
	TrimFraction float64
	// OutlierK rejects samples more than K MAD-equivalent standard
	// deviations from the median before aggregation (≤ 0 disables).
	OutlierK float64
	// BootstrapResamples sizes the bootstrap behind each confidence
	// interval (< 2 disables interval estimation).
	BootstrapResamples int
	// Confidence is the two-sided bootstrap confidence level.
	Confidence float64
	// Seed drives the bootstrap resampler (deterministic).
	Seed int64
}

// DefaultOptions returns the settings used throughout the experiments.
func DefaultOptions(params platform.ParagonParams) Options {
	return Options{
		Params:        params,
		BurstCount:    200,
		Sizes:         []int{16, 32, 64, 128, 256, 384, 512, 640, 768, 896, 1024, 1280, 1536, 2048, 2560, 3072, 4096},
		MaxContenders: 4,
		JGrid:         []int{1, 500, 1000},
		ProbeWords:    256,
		ProbeWork:     2.0,
		Warmup:        0.5,

		Repeats:            1,
		TrimFraction:       0.2,
		OutlierK:           3.5,
		BootstrapResamples: 200,
		Confidence:         0.95,
		Seed:               1,
	}
}

func (o Options) validate() error {
	if o.BurstCount < 2 {
		return fmt.Errorf("calibrate: burst count %d too small", o.BurstCount)
	}
	if len(o.Sizes) < 4 {
		return errors.New("calibrate: need at least 4 message sizes for the piecewise fit")
	}
	if err := checkGrid("Sizes", o.Sizes); err != nil {
		return err
	}
	if o.MaxContenders < 1 {
		return fmt.Errorf("calibrate: max contenders %d must be ≥ 1", o.MaxContenders)
	}
	if len(o.JGrid) == 0 {
		return errors.New("calibrate: empty j grid")
	}
	if err := checkGrid("JGrid", o.JGrid); err != nil {
		return err
	}
	if o.ProbeWords < 1 || o.ProbeWork <= 0 {
		return fmt.Errorf("calibrate: invalid probe (%d words, %v s)", o.ProbeWords, o.ProbeWork)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("calibrate: negative warmup %v", o.Warmup)
	}
	if o.Repeats < 0 {
		return fmt.Errorf("calibrate: negative repeats %d", o.Repeats)
	}
	if o.TrimFraction < 0 || o.TrimFraction >= 0.5 {
		return fmt.Errorf("calibrate: trim fraction %v out of [0,0.5)", o.TrimFraction)
	}
	if o.Confidence < 0 || o.Confidence >= 1 {
		return fmt.Errorf("calibrate: confidence %v out of [0,1)", o.Confidence)
	}
	return nil
}

// checkGrid rejects a message-size grid with a non-positive or repeated
// entry: each entry is one measured point.
func checkGrid(field string, words []int) error {
	for i, w := range words {
		if w < 1 {
			return fmt.Errorf("calibrate: %s entry %d must be positive", field, w)
		}
		if slices.Contains(words[:i], w) {
			return fmt.Errorf("calibrate: %s lists %d twice", field, w)
		}
	}
	return nil
}

// probe is one measurement of the suite, as a comparable value: a
// ping-pong burst of words-word messages in direction dir, or (compute)
// a CPU-bound run of ProbeWork dedicated seconds; beside hogs CPU-bound
// generators or streamers generators streaming streamWords-word
// messages in streamDir; after repeat r's jittered warmup.
type probe struct {
	compute         bool
	dir             workload.Direction
	words           int
	hogs, streamers int
	streamWords     int
	streamDir       workload.Direction
	r               int
}

// withHogs is p run beside i CPU-bound generators.
func (p probe) withHogs(i int) probe {
	p.hogs = i
	return p
}

// withStreamers is p run beside i generators streaming j-word messages
// in direction dir.
func (p probe) withStreamers(i, j int, dir workload.Direction) probe {
	p.streamers, p.streamWords, p.streamDir = i, j, dir
	return p
}

// measure runs one probe on a private kernel and returns the burst's
// per-message cost or the CPU-bound run's elapsed time.
func (o Options) measure(pr probe) (float64, error) {
	k := des.New()
	defer k.Close()
	sp, err := platform.NewSunParagon(k, o.Params)
	if err != nil {
		return 0, err
	}
	spawnHogs(sp, pr.hogs)
	spawnStreamers(sp, pr.streamers, pr.streamWords, pr.streamDir)
	// The warmup is jittered across repeats to decorrelate the probe's
	// phase from the contenders' deterministic cycles.
	return workload.Measure(k, "probe", o.Warmup+phaseJitter(pr.r), func(p *des.Proc) float64 {
		if pr.compute {
			start := p.Now()
			sp.Host.Compute(p, o.ProbeWork)
			return p.Now() - start
		}
		return workload.Burst(p, sp, pr.dir, "probe", o.BurstCount, pr.words) / float64(o.BurstCount)
	})
}

func modelFromFit(fit stats.PiecewiseFit) (core.CommModel, error) {
	if fit.Small.Slope <= 0 || fit.Large.Slope <= 0 {
		return core.CommModel{}, fmt.Errorf("calibrate: non-positive fitted slope (%v/%v)", fit.Small.Slope, fit.Large.Slope)
	}
	clampAlpha := func(a float64) float64 {
		if a < 0 {
			return 0
		}
		return a
	}
	return core.CommModel{
		Threshold: int(fit.Threshold),
		Small:     core.CommPiece{Alpha: clampAlpha(fit.Small.Intercept), Beta: 1 / fit.Small.Slope},
		Large:     core.CommPiece{Alpha: clampAlpha(fit.Large.Intercept), Beta: 1 / fit.Large.Slope},
	}, nil
}

// spawnStreamers installs i generators that communicate continuously
// (comm fraction 1) with j-word messages in the given direction,
// phase-staggered deterministically.
func spawnStreamers(sp *platform.SunParagon, i, j int, dir workload.Direction) {
	for g := 0; g < i; g++ {
		spec := workload.AlternatorSpec{
			Name:         fmt.Sprintf("gen%d", g),
			CommFraction: 1,
			MsgWords:     j,
			Period:       0.05,
			Phase:        0.013 * float64(g+1),
			Direction:    dir,
		}
		if _, err := workload.SpawnAlternator(sp, spec); err != nil {
			panic(err) // specs are constructed here; invalid ones are bugs
		}
	}
}

// spawnHogs installs i CPU-bound generators.
func spawnHogs(sp *platform.SunParagon, i int) {
	for g := 0; g < i; g++ {
		workload.SpawnCPUHog(sp, fmt.Sprintf("hog%d", g))
	}
}

// delayOf converts a contended/dedicated pair into the paper's delay
// term: the extra cost as a fraction of the dedicated cost, floored at
// zero to absorb measurement jitter.
func delayOf(contended, dedicated float64) float64 {
	d := contended/dedicated - 1
	if d < 0 {
		return 0
	}
	return d
}

// Run executes the full suite and returns a ready-to-use calibration.
// It is RunRobust without the confidence annotations; with the default
// Repeats = 1 every parameter rests on one measurement per point.
func Run(opts Options) (core.Calibration, error) {
	cal, _, err := RunRobust(opts)
	return cal, err
}
