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
// This root package is a façade: it re-exports the part of the internal
// packages that the runnable examples use, and the types their
// signatures carry, so a program needs a single import. A name that no
// caller outside this package reaches is not kept here (make deadapi).
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
	"math"

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
)

// HostToBack is the front-end → back-end transfer direction (the
// paper's Sun→CM2/Paragon).
const HostToBack = core.HostToBack

// NewPredictor validates a calibration and returns a predictor.
func NewPredictor(cal Calibration) (*Predictor, error) { return core.NewPredictor(cal) }

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

// ShouldOffload is the paper's Equation (1): offload a task to the
// back-end only when tHost > tBack + cTo + cFrom.
func ShouldOffload(tHost, tBack, cTo, cFrom float64) bool {
	return core.ShouldOffload(tHost, tBack, cTo, cFrom)
}

// --- §4 extensions ---------------------------------------------------------

// Phase is one interval of a piecewise-constant contender timeline.
type Phase = core.Phase

// PredictCommPhased predicts a transfer's elapsed time under a dynamic
// job mix, re-evaluating the slowdown at every phase change.
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
