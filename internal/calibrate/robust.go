package calibrate

import (
	"context"
	"fmt"
	"math/rand"

	"contention/internal/core"
	"contention/internal/runner"
	"contention/internal/stats"
	"contention/internal/workload"
)

// The robust estimation layer of the calibration suite: every model
// parameter is measured Repeats times with a deterministically
// jittered probe phase, MAD-filtered, aggregated by trimmed mean, and
// annotated with a bootstrap confidence interval. With Repeats = 1 every
// resample is the data itself, so no bootstrap replicate is refitted.

// The aggregation's settings.
const (
	// trimFraction is trimmed per tail when aggregating repeated
	// measurements.
	trimFraction = 0.2
	// outlierK rejects samples more than outlierK MAD-equivalent
	// standard deviations from the median before aggregation.
	outlierK = 3.5
	// confidenceLevel is the two-sided bootstrap confidence level. It
	// is typed so that (1±confidenceLevel)/2 rounds each step to
	// float64, as arithmetic on a float64 variable does; folded untyped,
	// the lower tail would be exactly 0.025, six ulps from the float64
	// (1-0.95)/2 the recorded calibration digests were computed with.
	confidenceLevel float64 = 0.95
	// bootstrapSeed drives the bootstrap resampler (deterministic).
	bootstrapSeed = 1
)

// PieceCI carries confidence intervals for one comm-model piece.
type PieceCI struct {
	Alpha stats.Interval
	Beta  stats.Interval
}

// CommCI carries confidence intervals for a piecewise comm model.
type CommCI struct {
	Small PieceCI
	Large PieceCI
}

// Confidence annotates every fitted parameter of a calibration with a
// bootstrap confidence interval, plus aggregation diagnostics. Delay
// intervals are indexed like their tables ([i-1] = i contenders).
type Confidence struct {
	Level            float64
	Repeats          int
	OutliersRejected int

	ToBack CommCI
	ToHost CommCI

	CompOnComm []stats.Interval
	CommOnComm []stats.Interval
	CommOnComp map[int][]stats.Interval
}

// phaseJitter decorrelates repeat r's probe phase from the contenders'
// deterministic cycles: an irrational-looking offset that never aligns
// with the 0.05 s alternator period.
func phaseJitter(r int) float64 { return 0.0137 * float64(r) }

func (o Options) repeats() int {
	if o.Repeats < 1 {
		return 1
	}
	return o.Repeats
}

// aggregate MAD-filters and trim-means one sample set.
func (o Options) aggregate(samples []float64) (float64, int, error) {
	kept, rejected := stats.RejectOutliersMAD(samples, outlierK)
	if len(kept) == 0 { // all rejected: fall back to the raw median
		return stats.Median(samples), rejected, nil
	}
	v, err := stats.TrimmedMean(kept, trimFraction)
	return v, rejected, err
}

// resampleAgg draws one bootstrap resample of samples and aggregates
// it the same way the point estimate was aggregated.
func (o Options) resampleAgg(samples []float64, rng *rand.Rand) float64 {
	buf := make([]float64, len(samples))
	for i := range buf {
		buf[i] = samples[rng.Intn(len(samples))]
	}
	v, _, err := o.aggregate(buf)
	if err != nil { // can't happen for non-empty buf; be safe
		return stats.Median(buf)
	}
	return v
}

// interval turns a slice of bootstrap statistics into a confidence
// interval at confidenceLevel.
func (o Options) interval(vals []float64) stats.Interval {
	if len(vals) < 2 {
		return stats.Interval{}
	}
	lo, errLo := stats.Quantile(vals, (1-confidenceLevel)/2)
	hi, errHi := stats.Quantile(vals, (1+confidenceLevel)/2)
	if errLo != nil || errHi != nil {
		return stats.Interval{}
	}
	return stats.Interval{Lo: lo, Hi: hi}
}

func (o Options) bootstrapOn() bool {
	return o.BootstrapResamples >= 2
}

// replicates returns one bootstrap replicate of a statistic per
// resample; draw computes a replicate from freshly resampled data and
// reports false for an unusable resample. With one sample per point
// every resample is the data itself, so every replicate is the point
// estimate and draw is never called. The copies still go through
// o.interval: its interpolation v·(1−f) + v·f need not give back v to
// the last bit, and the interval must be the one a refit would give.
func replicates[T any](o Options, point T, draw func() (T, bool)) []T {
	if !o.bootstrapOn() {
		return nil
	}
	out := make([]T, 0, o.BootstrapResamples)
	for b := 0; b < o.BootstrapResamples; b++ {
		if o.repeats() == 1 {
			out = append(out, point)
		} else if v, ok := draw(); ok {
			out = append(out, v)
		}
	}
	return out
}

// plan lists the suite's probes in the order the suite reads them: the
// α/β grid Sun→Paragon then Paragon→Sun; the dedicated ping-pong and
// CPU-bound probes; per i the hog burst and both streamer bursts; per j
// and i both streamer CPU-bound runs; repeats innermost. An exact
// duplicate is listed once: the dedicated ping-pong burst is also an
// α/β point whenever ProbeWords is in Sizes.
func (o Options) plan() []probe {
	ping, cpu := o.pingProbe(), probe{compute: true}
	var points []probe
	for _, dir := range []workload.Direction{workload.SunToParagon, workload.ParagonToSun} {
		for _, words := range o.Sizes {
			points = append(points, probe{dir: dir, words: words})
		}
	}
	points = append(points, ping, cpu)
	for i := 1; i <= o.MaxContenders; i++ {
		points = append(points, ping.withHogs(i),
			ping.withStreamers(i, 1, workload.SunToParagon), ping.withStreamers(i, 1, workload.ParagonToSun))
	}
	for _, j := range o.JGrid {
		for i := 1; i <= o.MaxContenders; i++ {
			points = append(points,
				cpu.withStreamers(i, j, workload.SunToParagon), cpu.withStreamers(i, j, workload.ParagonToSun))
		}
	}
	seen := make(map[probe]bool, len(points)*o.repeats())
	plan := make([]probe, 0, len(points)*o.repeats())
	for _, p := range points {
		for p.r = 0; p.r < o.repeats(); p.r++ {
			if !seen[p] {
				seen[p] = true
				plan = append(plan, p)
			}
		}
	}
	return plan
}

// pingProbe is the dedicated ping-pong burst the delay tables divide by.
func (o Options) pingProbe() probe {
	return probe{dir: workload.SunToParagon, words: o.ProbeWords}
}

// measureAll runs the plan on a GOMAXPROCS worker pool of its own and
// returns every probe's value.
func (o Options) measureAll() (map[probe]float64, error) {
	plan := o.plan()
	vals, err := runner.Map(context.Background(), runner.New(0), plan,
		func(_ context.Context, _ int, p probe) (float64, error) { return o.measure(p) })
	if err != nil {
		return nil, err
	}
	m := make(map[probe]float64, len(plan))
	for i, p := range plan {
		m[p] = vals[i]
	}
	return m, nil
}

// samples returns point p's measurements, in repeat order.
func (o Options) samples(m map[probe]float64, p probe) []float64 {
	out := make([]float64, o.repeats())
	for r := range out {
		p.r = r
		out[r] = m[p]
	}
	return out
}

// fitCommModelRobust fits the piecewise model on the aggregated size
// grid of one direction and bootstraps α/β intervals by refitting
// resampled aggregates.
func (o Options) fitCommModelRobust(m map[probe]float64, dir workload.Direction, rng *rand.Rand) (core.CommModel, CommCI, int, error) {
	xs := make([]float64, len(o.Sizes))
	ys := make([]float64, len(o.Sizes))
	sampleSets := make([][]float64, len(o.Sizes))
	rejected := 0
	for i, words := range o.Sizes {
		samples := o.samples(m, probe{dir: dir, words: words})
		v, rej, err := o.aggregate(samples)
		if err != nil {
			return core.CommModel{}, CommCI{}, 0, err
		}
		xs[i] = float64(words)
		ys[i] = v
		sampleSets[i] = samples
		rejected += rej
	}
	fit, err := stats.FitPiecewise(xs, ys)
	if err != nil {
		return core.CommModel{}, CommCI{}, 0, err
	}
	model, err := modelFromFit(fit)
	if err != nil {
		return core.CommModel{}, CommCI{}, 0, err
	}
	bys := make([]float64, len(xs))
	models := replicates(o, model, func() (core.CommModel, bool) {
		for i := range sampleSets {
			bys[i] = o.resampleAgg(sampleSets[i], rng)
		}
		bfit, err := stats.FitPiecewise(xs, bys)
		if err != nil {
			return core.CommModel{}, false
		}
		bmodel, err := modelFromFit(bfit)
		return bmodel, err == nil
	})
	var aS, bS, aL, bL []float64
	for _, bm := range models {
		aS = append(aS, bm.Small.Alpha)
		bS = append(bS, bm.Small.Beta)
		aL = append(aL, bm.Large.Alpha)
		bL = append(bL, bm.Large.Beta)
	}
	ci := CommCI{
		Small: PieceCI{Alpha: o.interval(aS), Beta: o.interval(bS)},
		Large: PieceCI{Alpha: o.interval(aL), Beta: o.interval(bL)},
	}
	return model, ci, rejected, nil
}

// delayPoint aggregates a contended/dedicated sample-set pair into one
// delay entry plus its bootstrap interval. Both sample sets are
// resampled jointly so the interval reflects uncertainty in both.
func (o Options) delayPoint(contended, dedicated []float64, rng *rand.Rand) (float64, stats.Interval, int, error) {
	aggC, rejC, err := o.aggregate(contended)
	if err != nil {
		return 0, stats.Interval{}, 0, err
	}
	aggD, rejD, err := o.aggregate(dedicated)
	if err != nil {
		return 0, stats.Interval{}, 0, err
	}
	val := delayOf(aggC, aggD)
	iv := o.interval(replicates(o, val, func() (float64, bool) {
		return delayOf(o.resampleAgg(contended, rng), o.resampleAgg(dedicated, rng)), true
	}))
	return val, iv, rejC + rejD, nil
}

// delayPairPoint is delayPoint over a direction-averaged pair of
// contended sample sets (the paper averages Sun→Paragon and
// Paragon→Sun).
func (o Options) delayPairPoint(toBack, toHost, dedicated []float64, rng *rand.Rand) (float64, stats.Interval, int, error) {
	aggTB, rejTB, err := o.aggregate(toBack)
	if err != nil {
		return 0, stats.Interval{}, 0, err
	}
	aggTH, rejTH, err := o.aggregate(toHost)
	if err != nil {
		return 0, stats.Interval{}, 0, err
	}
	aggD, rejD, err := o.aggregate(dedicated)
	if err != nil {
		return 0, stats.Interval{}, 0, err
	}
	val := (delayOf(aggTB, aggD) + delayOf(aggTH, aggD)) / 2
	iv := o.interval(replicates(o, val, func() (float64, bool) {
		d := o.resampleAgg(dedicated, rng)
		return (delayOf(o.resampleAgg(toBack, rng), d) + delayOf(o.resampleAgg(toHost, rng), d)) / 2, true
	}))
	return val, iv, rejTB + rejTH + rejD, nil
}

// measureDelayTablesRobust assembles the delay tables plus per-entry
// confidence intervals from the contention probes.
func (o Options) measureDelayTablesRobust(m map[probe]float64, rng *rand.Rand, conf *Confidence) (core.DelayTables, error) {
	ping, cpu := o.pingProbe(), probe{compute: true}
	dedicated, dedicatedComp := o.samples(m, ping), o.samples(m, cpu)

	tables := core.DelayTables{CommOnComp: map[int][]float64{}}
	conf.CommOnComp = map[int][]stats.Interval{}
	for i := 1; i <= o.MaxContenders; i++ {
		// delay^i_comp: CPU-bound generators vs the ping-pong probe.
		val, iv, rej, err := o.delayPoint(o.samples(m, ping.withHogs(i)), dedicated, rng)
		if err != nil {
			return core.DelayTables{}, err
		}
		tables.CompOnComm = append(tables.CompOnComm, val)
		conf.CompOnComm = append(conf.CompOnComm, iv)
		conf.OutliersRejected += rej

		// delay^i_comm: one-word streamers, both directions, averaged.
		val, iv, rej, err = o.delayPairPoint(
			o.samples(m, ping.withStreamers(i, 1, workload.SunToParagon)),
			o.samples(m, ping.withStreamers(i, 1, workload.ParagonToSun)), dedicated, rng)
		if err != nil {
			return core.DelayTables{}, err
		}
		tables.CommOnComm = append(tables.CommOnComm, val)
		conf.CommOnComm = append(conf.CommOnComm, iv)
		conf.OutliersRejected += rej
	}

	// delay^{i,j}_comm: streamers vs the CPU-bound probe.
	for _, j := range o.JGrid {
		col := make([]float64, 0, o.MaxContenders)
		ivCol := make([]stats.Interval, 0, o.MaxContenders)
		for i := 1; i <= o.MaxContenders; i++ {
			val, iv, rej, err := o.delayPairPoint(
				o.samples(m, cpu.withStreamers(i, j, workload.SunToParagon)),
				o.samples(m, cpu.withStreamers(i, j, workload.ParagonToSun)), dedicatedComp, rng)
			if err != nil {
				return core.DelayTables{}, err
			}
			col = append(col, val)
			ivCol = append(ivCol, iv)
			conf.OutliersRejected += rej
		}
		tables.CommOnComp[j] = col
		conf.CommOnComp[j] = ivCol
	}
	return tables, nil
}

// RunRobust executes the full suite with robust estimation and returns
// the calibration together with per-parameter confidence intervals.
//
// The plan's probes run through runner.Map on a GOMAXPROCS pool of the
// suite's own, and no output bit depends on the pool's width — the
// argument TestParallelMatchesSerialByteIdentical relies on for the
// experiment drivers: every probe builds a private DES kernel, the
// simulator packages hold no shared mutable state, and the results are
// read back by probe and aggregated serially, so the bootstrap draws
// its random numbers in one fixed order. runner.Map reports the
// lowest-index error, the one a serial pass over the plan stops at.
// Options are validated first: a bad grid must not panic on a pool
// goroutine, where no caller's recover can catch it.
func RunRobust(opts Options) (core.Calibration, *Confidence, error) {
	if err := opts.validate(); err != nil {
		return core.Calibration{}, nil, err
	}
	m, err := opts.measureAll()
	if err != nil {
		return core.Calibration{}, nil, err
	}
	rng := rand.New(rand.NewSource(bootstrapSeed))
	conf := &Confidence{Level: confidenceLevel, Repeats: opts.repeats()}

	toBack, ciBack, rejB, err := opts.fitCommModelRobust(m, workload.SunToParagon, rng)
	if err != nil {
		return core.Calibration{}, nil, err
	}
	toHost, ciHost, rejH, err := opts.fitCommModelRobust(m, workload.ParagonToSun, rng)
	if err != nil {
		return core.Calibration{}, nil, err
	}
	conf.ToBack, conf.ToHost = ciBack, ciHost
	conf.OutliersRejected += rejB + rejH

	tables, err := opts.measureDelayTablesRobust(m, rng, conf)
	if err != nil {
		return core.Calibration{}, nil, err
	}
	cal := core.Calibration{
		ToBack:   toBack,
		ToHost:   toHost,
		Tables:   tables,
		Platform: fmt.Sprintf("sun/paragon (%v)", opts.Params.Mode),
	}
	if err := cal.Validate(); err != nil {
		return core.Calibration{}, nil, err
	}
	return cal, conf, nil
}
