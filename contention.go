// Package contention is a Go implementation of the contention model of
// Figueira & Berman, "Modeling the Effects of Contention on the
// Performance of Heterogeneous Applications" (HPDC 1996), together with
// everything needed to reproduce the paper: simulated Sun/CM2 and
// Sun/Paragon platforms, the calibration suite, contention-generating
// workloads, an allocation scheduler, and drivers for every table and
// figure of the evaluation.
//
// The model predicts how contention — extra applications computing on a
// time-shared front-end or communicating over a shared link — inflates
// the computation and communication costs of an application on a
// two-machine coupled heterogeneous platform:
//
//   - Dedicated communication cost is a piecewise-linear function of
//     message size: per data set, N × (α + size/β), with (α, β) from
//     one of two pieces split at a threshold (1024 words on the
//     Sun/Paragon).
//   - On a tightly coupled host/SIMD pair (Sun/CM2), all contention is
//     CPU contention and slowdown = p+1; back-end programs follow
//     T = max(dcomp + didle, dserial × slowdown).
//   - On an independent host/MPP pair (Sun/Paragon), slowdown is a
//     probabilistic mixture over the workload: Poisson-binomial
//     probabilities that exactly i contenders compute (pcomp_i) or
//     communicate (pcomm_i) weight measured delay tables.
//
// This root package is a façade: it re-exports the public surface of
// the internal packages so downstream users need a single import.
//
//	cal, _ := contention.Calibrate(contention.DefaultCalibrationOptions(
//	    contention.DefaultParagonParams(contention.OneHop)))
//	pred, _ := contention.NewPredictor(cal)
//	cost, _ := pred.PredictComm(contention.HostToBack,
//	    []contention.DataSet{{N: 1000, Words: 200}},
//	    []contention.Contender{{CommFraction: 0.25, MsgWords: 200}})
package contention

import (
	"fmt"
	"io"
	"math"

	"contention/internal/caltrust"
	"contention/internal/core"
)

// Model types (the paper's contribution; see internal/core).
type (
	// DataSet is a group of N same-sized messages of Words words each.
	DataSet = core.DataSet
	// CommPiece is one linear piece of the communication-cost model.
	CommPiece = core.CommPiece
	// CommModel is the piecewise-linear dedicated communication model.
	CommModel = core.CommModel
	// Contender describes one extra application sharing the front-end.
	Contender = core.Contender
	// DelayTables holds the calibrated system-dependent delay terms.
	DelayTables = core.DelayTables
	// Calibration bundles per-direction comm models and delay tables.
	Calibration = core.Calibration
	// Predictor produces slowdown-adjusted cost predictions.
	Predictor = core.Predictor
	// System tracks a run-time contender set and evaluates its slowdowns.
	System = core.System
	// Direction names a transfer direction across the platform link.
	Direction = core.Direction
)

// Transfer directions.
const (
	// HostToBack is front-end → back-end (the paper's Sun→CM2/Paragon).
	HostToBack = core.HostToBack
	// BackToHost is back-end → front-end.
	BackToHost = core.BackToHost
)

// Uniform returns a single-piece communication model.
func Uniform(alpha, beta float64) CommModel { return core.Uniform(alpha, beta) }

// NewPredictor validates a calibration and returns a predictor.
func NewPredictor(cal Calibration) (*Predictor, error) { return core.NewPredictor(cal) }

// NewSystem returns an empty run-time contender set over delay tables.
func NewSystem(tables DelayTables) (*System, error) { return core.NewSystem(tables) }

// SimpleSlowdown is the CM2-platform slowdown p+1 for p extra CPU-bound
// processes on a fair-shared CPU. Unlike the internal helper it rejects
// a negative p with an error instead of panicking.
func SimpleSlowdown(p int) (float64, error) {
	if p < 0 {
		return 0, fmt.Errorf("contention: negative contender count %d", p)
	}
	return core.SimpleSlowdown(p), nil
}

// CommSlowdown is the Sun/Paragon communication slowdown:
// 1 + Σ pcomp_i·delay^i_comp + Σ pcomm_i·delay^i_comm.
func CommSlowdown(cs []Contender, t DelayTables) (float64, error) {
	return core.CommSlowdown(cs, t)
}

// CompSlowdown is the Sun/Paragon computation slowdown:
// 1 + Σ pcomp_i·i + Σ pcomm_i·delay^{i,j}_comm, with j the maximum
// contender message size.
func CompSlowdown(cs []Contender, t DelayTables) (float64, error) {
	return core.CompSlowdown(cs, t)
}

// CompSlowdownWithJ is CompSlowdown with an explicit j column.
func CompSlowdownWithJ(cs []Contender, t DelayTables, j int) (float64, error) {
	return core.CompSlowdownWithJ(cs, t, j)
}

// CM2ExecTime is the back-end execution law
// max(dcomp+didle, dserial×(p+1)). Invalid inputs (negative times or
// contender count, NaN) return an error instead of panicking.
func CM2ExecTime(dcomp, didle, dserial float64, p int) (float64, error) {
	if p < 0 {
		return 0, fmt.Errorf("contention: negative contender count %d", p)
	}
	for _, v := range [...]float64{dcomp, didle, dserial} {
		if v < 0 || math.IsNaN(v) {
			return 0, fmt.Errorf("contention: invalid CM2 time component %v", v)
		}
	}
	return core.CM2ExecTime(dcomp, didle, dserial, p), nil
}

// CM2CommTime scales a dedicated CM2 transfer cost by the CPU slowdown.
// Invalid inputs return an error instead of panicking.
func CM2CommTime(dcomm float64, p int) (float64, error) {
	if p < 0 {
		return 0, fmt.Errorf("contention: negative contender count %d", p)
	}
	if dcomm < 0 || math.IsNaN(dcomm) {
		return 0, fmt.Errorf("contention: invalid dedicated comm cost %v", dcomm)
	}
	return core.CM2CommTime(dcomm, p), nil
}

// ShouldOffload is the paper's Equation (1): offload a task to the
// back-end only when tHost > tBack + cTo + cFrom.
func ShouldOffload(tHost, tBack, cTo, cFrom float64) bool {
	return core.ShouldOffload(tHost, tBack, cTo, cFrom)
}

// --- §4 extensions ---------------------------------------------------------

// MemoryModel describes front-end memory for the paging extension.
type MemoryModel = core.MemoryModel

// MemorySlowdown returns the paging factor for an application sharing
// the host with the given contender working sets.
func MemorySlowdown(m MemoryModel, appPages int, contenderPages []int) (float64, error) {
	return core.MemorySlowdown(m, appPages, contenderPages)
}

// CompSlowdownWithMemory combines the contention mixture with the
// paging factor.
func CompSlowdownWithMemory(cs []Contender, t DelayTables, m MemoryModel, appPages int, contenderPages []int) (float64, error) {
	return core.CompSlowdownWithMemory(cs, t, m, appPages, contenderPages)
}

// Phase is one interval of a piecewise-constant contender timeline.
type Phase = core.Phase

// PredictCompPhased predicts a computation's elapsed time under a
// dynamic job mix, re-evaluating the slowdown at every phase change.
func PredictCompPhased(dcomp float64, phases []Phase, t DelayTables) (float64, error) {
	return core.PredictCompPhased(dcomp, phases, t)
}

// PredictCommPhased is the communication analogue of PredictCompPhased.
func PredictCommPhased(dcomm float64, phases []Phase, t DelayTables) (float64, error) {
	return core.PredictCommPhased(dcomm, phases, t)
}

// LinkID identifies one front-end↔back-end link of a multi-machine
// platform.
type LinkID = core.LinkID

// MultiContender tags a contender with the link it communicates over.
type MultiContender = core.MultiContender

// CommSlowdownMulti is the per-link communication slowdown of the
// more-than-two-machines generalization.
func CommSlowdownMulti(target LinkID, cs []MultiContender, t DelayTables) (float64, error) {
	return core.CommSlowdownMulti(target, cs, t)
}

// CompSlowdownMulti is the computation slowdown on a multi-link
// front-end (link tags are irrelevant for computation).
func CompSlowdownMulti(cs []MultiContender, t DelayTables) (float64, error) {
	return core.CompSlowdownMulti(cs, t)
}

// PredictCommMulti scales a dedicated cost on the target link by the
// multi-machine slowdown.
func PredictCommMulti(dcomm float64, target LinkID, cs []MultiContender, t DelayTables) (float64, error) {
	return core.PredictCommMulti(dcomm, target, cs, t)
}

// LoadCalibration reads a calibration previously written with
// Calibration.Save and validates it — letting a scheduler start from a
// stored calibration instead of re-running the test suite.
func LoadCalibration(r io.Reader) (Calibration, error) { return core.LoadCalibration(r) }

// SaveCalibrationFile persists the calibration to path atomically as a
// schema-versioned, checksummed envelope (see internal/caltrust). The
// note is free-form provenance stored alongside the payload.
func SaveCalibrationFile(path string, cal Calibration, note string) error {
	return caltrust.WriteFile(path, cal, caltrust.Meta{Note: note})
}

// LoadCalibrationFile reads a calibration written by SaveCalibrationFile
// (or legacy raw `calibrate -json` output), rejecting corrupt,
// truncated, or incompatibly-versioned files with a descriptive error.
func LoadCalibrationFile(path string) (Calibration, error) {
	cal, _, err := caltrust.ReadFile(path)
	return cal, err
}

// CheckCalibration runs the trust layer's strict invariant validation —
// delay tables monotone in contender count, comm-model pieces
// consistent at the breakpoint — beyond the structural checks of
// Calibration.Validate. The returned error (nil when clean) is a
// *ValidationReport listing every violation with its parameter path.
func CheckCalibration(cal Calibration) error {
	return caltrust.Validate(cal, caltrust.DefaultCheckConfig()).Err()
}

// ValidationReport is the structured multi-violation error produced by
// CheckCalibration (recover it with errors.As).
type ValidationReport = core.ValidationReport
