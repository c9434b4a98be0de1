package core

import (
	"fmt"

	"contention/internal/prob"
)

// Multi-machine generalization — the paper notes "generalization of
// these results to more than two machines is straightforward". With
// several back-end machines attached to one front-end over separate
// dedicated links, contenders still share a single CPU, but only
// same-link contenders share a given wire. The slowdown of a transfer
// on link L therefore takes three delay contributions:
//
//   - computing contenders (any link): delay^i_comp, as before;
//   - contenders communicating on L: delay^i_comm, as before;
//   - contenders communicating on *other* links: they do not occupy L's
//     wire, but their conversion work loads the CPU exactly the way it
//     loads a computing application — the quantity the delay^{i,j}_comm
//     table measures. A transfer is only partly CPU work, however, so
//     that CPU-equivalent delay is scaled by the CPU share of a
//     transfer, which the calibration also measured: delay^1_comp is
//     the delay one fully CPU-bound contender imposes on communication,
//     i.e. exactly that share.

// LinkID identifies one front-end↔back-end link.
type LinkID int

// MultiContender tags a contender with the link it communicates over.
type MultiContender struct {
	Contender
	Link LinkID
}

// CommSlowdownMulti is the communication slowdown for a transfer on
// link target under the tagged contender set.
func CommSlowdownMulti(target LinkID, cs []MultiContender, t DelayTables) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	comp := prob.MustNew()
	same := prob.MustNew()
	other := prob.MustNew()
	maxOtherJ := 0
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return 0, err
		}
		if err := comp.Add(c.CompFraction()); err != nil {
			return 0, err
		}
		sameFrac, otherFrac := 0.0, 0.0
		if c.Link == target {
			sameFrac = c.CommFraction
		} else {
			otherFrac = c.CommFraction
			if c.MsgWords > maxOtherJ {
				maxOtherJ = c.MsgWords
			}
		}
		if err := same.Add(sameFrac); err != nil {
			return 0, err
		}
		if err := other.Add(otherFrac); err != nil {
			return 0, err
		}
	}
	// CPU share of a transfer, as calibrated: the delay one CPU-bound
	// contender imposes on the ping-pong benchmark.
	cpuShare := lookup(t.CompOnComm, 1)
	// The delay^{i,j} column for the other links' traffic, resolved once;
	// that none is calibrated only matters if somebody uses one.
	otherJ, errNoCol := t.NearestJ(maxOtherJ)
	otherCol := t.CommOnComp[otherJ]
	s := 1.0
	for i := 1; i <= len(cs); i++ {
		s += comp.P(i) * lookup(t.CompOnComm, i)
		s += same.P(i) * lookup(t.CommOnComm, i)
		if p := other.P(i); p > 0 {
			if errNoCol != nil {
				return 0, errNoCol
			}
			s += p * lookup(otherCol, i) * cpuShare
		}
	}
	return s, nil
}

// CompSlowdownMulti is the computation slowdown on the shared front-end
// under the tagged contender set. Which link a contender communicates
// over does not matter for computation — the CPU effect of conversion
// is the same — so this reduces to the two-machine formula over the
// untagged contenders.
func CompSlowdownMulti(cs []MultiContender, t DelayTables) (float64, error) {
	flat := make([]Contender, len(cs))
	for i, c := range cs {
		flat[i] = c.Contender
	}
	return CompSlowdown(flat, t)
}

// PredictCommMulti scales a dedicated communication cost on the target
// link by the multi-machine slowdown. Dedicated costs are still per
// ⟨application, problem size, link⟩ via each link's own CommModel.
func PredictCommMulti(dcomm float64, target LinkID, cs []MultiContender, t DelayTables) (float64, error) {
	if dcomm < 0 {
		return 0, fmt.Errorf("core: negative dedicated cost %v", dcomm)
	}
	s, err := CommSlowdownMulti(target, cs, t)
	if err != nil {
		return 0, err
	}
	return dcomm * s, nil
}
