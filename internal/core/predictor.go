package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Direction names a transfer direction across the platform link.
type Direction int

const (
	// HostToBack is front-end → back-end (the paper's Sun→CM2/Paragon).
	HostToBack Direction = iota
	// BackToHost is back-end → front-end.
	BackToHost
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case HostToBack:
		return "host→back"
	case BackToHost:
		return "back→host"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Calibration bundles everything the model needs for one platform: the
// per-direction dedicated communication models and the delay tables.
// It is produced once per platform by package calibrate and is constant
// at run time; only the contender set changes.
type Calibration struct {
	ToBack   CommModel
	ToHost   CommModel
	Tables   DelayTables
	Platform string
}

// ValidateReport checks the whole calibration and returns every
// violation found, each prefixed with the component it lives in.
func (c Calibration) ValidateReport() *ValidationReport {
	r, _, _, _ := c.validateComponents()
	return r
}

// validateComponents validates each component once and returns its
// report beside the merged one ValidateReport hands out.
func (c Calibration) validateComponents() (merged, toBack, toHost, tables *ValidationReport) {
	toBack, toHost, tables = c.ToBack.ValidateReport(), c.ToHost.ValidateReport(), c.Tables.ValidateReport()
	merged = &ValidationReport{}
	merged.Merge("ToBack", toBack)
	merged.Merge("ToHost", toHost)
	merged.Merge("Tables", tables)
	return merged, toBack, toHost, tables
}

// Validate checks the calibration. On failure the returned error is a
// *ValidationReport; errors.As recovers the structured violations.
func (c Calibration) Validate() error { return c.ValidateReport().Err() }

// Predictor produces slowdown-adjusted cost predictions from a
// calibration and a contender set. It is the façade a scheduler uses to
// rank candidate allocations.
//
// A Predictor is goroutine-safe: its calibration is immutable, the
// slowdown kernel keeps per-call state on the caller's stack, and the
// staleness mark is an atomic. Many scheduler goroutines (or the
// parallel experiment runner) may share one Predictor without
// contending on anything.
type Predictor struct {
	cal    Calibration
	report *ValidationReport // validation findings captured at construction

	// Derived at construction so the prediction hot path never rebuilds
	// a validation report or re-sorts the calibrated j columns.
	jGrid     []int
	checksum  uint64   // TablesChecksum of cal.Tables, for surface stamping
	tablesErr error    // fatal delay-table violations, if any
	modelErr  [2]error // per-direction comm-model validation result

	// stale holds the staleness reason (nil: fresh). An atomic pointer,
	// not a mutex, so the Try fast path can gate on freshness with one
	// load. surface is the optionally attached precomputed surface.
	stale   atomic.Pointer[string]
	surface atomic.Pointer[surfaceBox]
}

// newPredictor validates the calibration — each component once, its
// verdict kept beside the merged report — and derives what the
// prediction hot path must not rebuild.
func newPredictor(cal Calibration) *Predictor {
	report, toBack, toHost, tables := cal.validateComponents()
	return &Predictor{
		cal:       cal,
		report:    report,
		jGrid:     cal.Tables.JGrid(),
		checksum:  TablesChecksum(cal.Tables),
		tablesErr: tables.Err(),
		modelErr:  [2]error{HostToBack: toBack.Err(), BackToHost: toHost.Err()},
	}
}

// NewPredictor validates the calibration and returns a predictor. On
// failure the error is a *ValidationReport carrying every violation.
func NewPredictor(cal Calibration) (*Predictor, error) {
	p := newPredictor(cal)
	if err := p.report.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewPredictorLenient accepts a possibly incomplete or invalid
// calibration without error, recording its validation report. The
// strict Predict* methods behave as usual (and fail where the
// calibration cannot support them); the Robust variants degrade to the
// conservative worst case instead of failing — with the delay tables'
// validation violations as the degradation reason when that is what is
// wrong. Use it when a scheduler must keep ranking allocations even
// though the calibration suite has not (fully or correctly) run.
func NewPredictorLenient(cal Calibration) *Predictor {
	return newPredictor(cal)
}

// ValidationReport returns the validation findings recorded when the
// predictor was built (never nil; possibly empty for a clean
// calibration).
func (p *Predictor) ValidationReport() *ValidationReport {
	if p.report == nil {
		return &ValidationReport{}
	}
	return p.report
}

// Calibration returns the predictor's calibration.
func (p *Predictor) Calibration() Calibration { return p.cal }

// model returns the dedicated comm model for a direction.
func (p *Predictor) model(dir Direction) (CommModel, error) {
	switch dir {
	case HostToBack:
		return p.cal.ToBack, nil
	case BackToHost:
		return p.cal.ToHost, nil
	default:
		return CommModel{}, fmt.Errorf("core: unknown direction %d", int(dir))
	}
}

// DedicatedComm returns dcomm for the data sets in the given direction.
// It is computed once per ⟨application, problem size, platform⟩ triple
// and does not vary with load.
func (p *Predictor) DedicatedComm(dir Direction, sets []DataSet) (float64, error) {
	m, err := p.model(dir)
	if err != nil {
		return 0, err
	}
	// Guard lenient predictors: an invalid α/β fit must error here, not
	// price transfers at Inf/NaN (worst-case pessimism can stand in for
	// missing delay tables, but not for a missing cost model). The
	// verdict was captured at construction; the hot path only consults it.
	if err := p.modelErr[dir]; err != nil {
		return 0, err
	}
	return m.Dedicated(sets)
}

// commSlowdown is CommSlowdown over the predictor's (immutable,
// validated once) delay tables.
func (p *Predictor) commSlowdown(cs []Contender) (float64, error) {
	if p.tablesErr != nil {
		return 0, p.tablesErr
	}
	return commMixture(cs, p.cal.Tables.CompOnComm, p.cal.Tables.CommOnComm)
}

// compSlowdownWithJ is the CompSlowdownWithJ analogue.
func (p *Predictor) compSlowdownWithJ(cs []Contender, j int) (float64, error) {
	if p.tablesErr != nil {
		return 0, p.tablesErr
	}
	return compMixture(cs, p.cal.Tables.CommOnComp, p.jGrid, j)
}

// compSlowdown is compSlowdownWithJ under the paper's auto-j rule.
func (p *Predictor) compSlowdown(cs []Contender) (float64, error) {
	return p.compSlowdownWithJ(cs, autoJ(cs))
}

// PredictComm returns the slowdown-adjusted communication cost
// C = dcomm × slowdown for the given contender set: one slowdown DP
// per call (PredictCommBatch amortizes it over a message-size sweep).
func (p *Predictor) PredictComm(dir Direction, sets []DataSet, cs []Contender) (float64, error) {
	mPredictComm.Inc()
	dcomm, err := p.DedicatedComm(dir, sets)
	if err != nil {
		return 0, err
	}
	s, err := p.commSlowdown(cs)
	if err != nil {
		return 0, err
	}
	return dcomm * s, nil
}

// PredictComp returns T = dcomp × slowdown for computation on the
// front-end under the given contender set.
func (p *Predictor) PredictComp(dcomp float64, cs []Contender) (float64, error) {
	mPredictComp.Inc()
	if dcomp < 0 {
		return 0, errors.New("core: negative dedicated computation time")
	}
	s, err := p.compSlowdown(cs)
	if err != nil {
		return 0, err
	}
	return dcomp * s, nil
}

// PredictCompWithJ is PredictComp with an explicit j column.
func (p *Predictor) PredictCompWithJ(dcomp float64, cs []Contender, j int) (float64, error) {
	mPredictComp.Inc()
	if dcomp < 0 {
		return 0, errors.New("core: negative dedicated computation time")
	}
	s, err := p.compSlowdownWithJ(cs, j)
	if err != nil {
		return 0, err
	}
	return dcomp * s, nil
}

// CommSlowdown is the communication-slowdown mixture for the
// predictor's calibration.
func (p *Predictor) CommSlowdown(cs []Contender) (float64, error) { return p.commSlowdown(cs) }

// CompSlowdown is the computation-slowdown mixture with the paper's
// auto-selected j (maximum contender message size).
func (p *Predictor) CompSlowdown(cs []Contender) (float64, error) { return p.compSlowdown(cs) }

// CompSlowdownWithJ is CompSlowdown with an explicit j column.
func (p *Predictor) CompSlowdownWithJ(cs []Contender, j int) (float64, error) {
	return p.compSlowdownWithJ(cs, j)
}

// --- Batched prediction ------------------------------------------------------

// PredictCommBatch prices a whole grid of transfers (one []DataSet per
// grid point, e.g. a message-size sweep) under one contender set,
// evaluating the slowdown mixture exactly once and amortizing it over
// the grid. Result k corresponds to batches[k].
func (p *Predictor) PredictCommBatch(dir Direction, batches [][]DataSet, cs []Contender) ([]float64, error) {
	mPredictComm.Add(int64(len(batches)))
	mPredictBatch.Observe(float64(len(batches)))
	s, err := p.commSlowdown(cs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(batches))
	for k, sets := range batches {
		dcomm, err := p.DedicatedComm(dir, sets)
		if err != nil {
			return nil, err
		}
		out[k] = dcomm * s
	}
	return out, nil
}

// PredictCompBatch predicts a grid of dedicated computation times under
// one contender set with a single slowdown evaluation (auto-selected j,
// per the paper's maximum-message-size rule).
func (p *Predictor) PredictCompBatch(dcomps []float64, cs []Contender) ([]float64, error) {
	mPredictComp.Add(int64(len(dcomps)))
	mPredictBatch.Observe(float64(len(dcomps)))
	s, err := p.compSlowdown(cs)
	if err != nil {
		return nil, err
	}
	return scaleBatch(dcomps, s)
}

// PredictCompBatchWithJ is PredictCompBatch with an explicit j column.
func (p *Predictor) PredictCompBatchWithJ(dcomps []float64, cs []Contender, j int) ([]float64, error) {
	mPredictComp.Add(int64(len(dcomps)))
	mPredictBatch.Observe(float64(len(dcomps)))
	s, err := p.compSlowdownWithJ(cs, j)
	if err != nil {
		return nil, err
	}
	return scaleBatch(dcomps, s)
}

func scaleBatch(dcomps []float64, s float64) ([]float64, error) {
	out := make([]float64, len(dcomps))
	for k, d := range dcomps {
		if d < 0 {
			return nil, errors.New("core: negative dedicated computation time")
		}
		out[k] = d * s
	}
	return out, nil
}

// --- Graceful degradation ---------------------------------------------------

// Prediction is a cost prediction carrying degradation metadata: when
// the calibration cannot support the paper's mixture model, Value holds
// the conservative p+1 worst case instead, Degraded is set, and Reason
// says why. Callers that ignore the flag still get a usable (if
// pessimistic) number — degraded, never wrong-silently.
type Prediction struct {
	Value    float64
	Degraded bool
	Reason   string
}

// WorstCaseSlowdown is the conservative fallback the degraded mode uses:
// all p contenders permanently resident on a fair-shared resource slow
// the application by p+1 (the paper's CM2-platform law, which needs no
// delay tables at all).
func WorstCaseSlowdown(cs []Contender) float64 { return float64(len(cs) + 1) }

// MarkStale flags the calibration as stale — e.g. the resource manager
// observed a job-mix regime change since calibration (§4: "slowdown
// factors should be recalculated when the job mix changes"). Until
// ClearStale, the Robust methods return the worst-case fallback, the
// Try fast path misses, and any attached surface is invalidated.
func (p *Predictor) MarkStale(reason string) {
	if reason == "" {
		reason = "calibration marked stale"
	}
	p.stale.Store(&reason)
	if b := p.surface.Load(); b != nil {
		b.s.Invalidate()
	}
}

// ClearStale removes the staleness mark (after recalibration). An
// attached surface is revalidated through its checksum gate: it only
// comes back if it was built from these exact tables.
func (p *Predictor) ClearStale() {
	p.stale.Store(nil)
	if b := p.surface.Load(); b != nil {
		b.s.Revalidate(p.checksum)
	}
}

// Stale reports the staleness reason ("" when fresh).
func (p *Predictor) Stale() string {
	if r := p.stale.Load(); r != nil {
		return *r
	}
	return ""
}

// tablesInvalidReason returns a degradation reason when the validation
// report recorded at construction shows fatal violations in the delay
// tables (the lenient predictor path: a bad table degrades to p+1, it
// does not feed garbage into the mixture).
func (p *Predictor) tablesInvalidReason() string {
	if p.report == nil {
		return ""
	}
	for _, v := range p.report.Fatal() {
		if strings.HasPrefix(v.Path, "Tables") {
			return fmt.Sprintf("invalid delay tables: %s: %s", v.Path, v.Msg)
		}
	}
	return ""
}

// degradeReasonComm reports why the communication slowdown cannot be
// trusted, or "" when the tables support it.
func (p *Predictor) degradeReasonComm(cs []Contender) string {
	if stale := p.Stale(); stale != "" {
		return "stale calibration: " + stale
	}
	if reason := p.tablesInvalidReason(); reason != "" {
		return reason
	}
	t := p.cal.Tables
	if len(t.CompOnComm) == 0 && len(t.CommOnComm) == 0 {
		return "no delay tables calibrated"
	}
	if len(t.CompOnComm) < len(cs) || len(t.CommOnComm) < len(cs) {
		return fmt.Sprintf("delay tables cover %d/%d contenders",
			min(len(t.CompOnComm), len(t.CommOnComm)), len(cs))
	}
	return ""
}

// degradeReasonComp is the computation-slowdown analogue.
func (p *Predictor) degradeReasonComp(cs []Contender) string {
	if stale := p.Stale(); stale != "" {
		return "stale calibration: " + stale
	}
	if reason := p.tablesInvalidReason(); reason != "" {
		return reason
	}
	t := p.cal.Tables
	anyComm := false
	for _, c := range cs {
		if c.CommFraction > 0 {
			anyComm = true
			break
		}
	}
	if anyComm {
		if len(t.CommOnComp) == 0 {
			return "no delay^{i,j} columns calibrated"
		}
		for j, col := range t.CommOnComp {
			if len(col) < len(cs) {
				return fmt.Sprintf("delay^{i,%d} column covers %d/%d contenders", j, len(col), len(cs))
			}
		}
	}
	return ""
}

// PredictCommRobust is PredictComm with graceful degradation: when the
// delay tables are missing, partial, invalid, or stale it returns
// dcomm × (p+1) flagged Degraded instead of an error. It still errors
// when the dedicated model itself cannot price the transfer (no α/β fit
// can be substituted by pessimism).
func (p *Predictor) PredictCommRobust(dir Direction, sets []DataSet, cs []Contender) (Prediction, error) {
	mPredictComm.Inc()
	dcomm, err := p.DedicatedComm(dir, sets)
	if err != nil {
		return Prediction{}, err
	}
	if reason := p.degradeReasonComm(cs); reason != "" {
		mPredictDegraded.Inc()
		return Prediction{Value: dcomm * WorstCaseSlowdown(cs), Degraded: true, Reason: reason}, nil
	}
	s, err := p.commSlowdown(cs)
	if err != nil {
		mPredictDegraded.Inc()
		return Prediction{Value: dcomm * WorstCaseSlowdown(cs), Degraded: true, Reason: err.Error()}, nil
	}
	return Prediction{Value: dcomm * s}, nil
}

// PredictCompRobust is PredictComp with graceful degradation to
// dcomp × (p+1) when the delay^{i,j} tables cannot support the mixture.
func (p *Predictor) PredictCompRobust(dcomp float64, cs []Contender) (Prediction, error) {
	mPredictComp.Inc()
	if dcomp < 0 {
		return Prediction{}, errors.New("core: negative dedicated computation time")
	}
	if reason := p.degradeReasonComp(cs); reason != "" {
		mPredictDegraded.Inc()
		return Prediction{Value: dcomp * WorstCaseSlowdown(cs), Degraded: true, Reason: reason}, nil
	}
	s, err := p.compSlowdown(cs)
	if err != nil {
		mPredictDegraded.Inc()
		return Prediction{Value: dcomp * WorstCaseSlowdown(cs), Degraded: true, Reason: err.Error()}, nil
	}
	return Prediction{Value: dcomp * s}, nil
}
