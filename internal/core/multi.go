package core

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
// link target under the tagged contender set. The three distributions it
// mixes are the slowdown kernel's, run on two two-machine views of the
// set:
//
//   - seen from target, an on-target contender is itself and an
//     off-target one is {IOFraction: io + qm} — its traffic neither
//     computes nor occupies target's wire — so the view's comp and comm
//     distributions are the set's computing and same-link ones;
//   - seen from the other links, an off-target contender is
//     {CommFraction: qm} and an on-target one idle, so the view's comm
//     distribution is the other-link one.
//
// A view is a contender-by-contender image of the set, and the kernel's
// value depends on a view's multiset alone, so the slowdown is a function
// of the tagged multiset. With every contender on target the first view
// is the set itself and the second adds nothing: the value is
// CommSlowdown's, bit for bit. The views live on the stack up to
// kernelStackP contenders.
func CommSlowdownMulti(target LinkID, cs []MultiContender, t DelayTables) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	p := len(cs)
	var buf [2 * kernelStackP]Contender
	views := buf[:]
	if p > kernelStackP {
		views = make([]Contender, 2*p)
	}
	fromTarget, fromOther := views[:p], views[p:2*p]
	maxOtherJ := 0
	for i := range cs {
		c := cs[i].Contender
		if err := c.Validate(); err != nil {
			return 0, err
		}
		if cs[i].Link == target {
			fromTarget[i], fromOther[i] = c, Contender{}
			continue
		}
		fromTarget[i] = Contender{IOFraction: c.IOFraction + c.CommFraction}
		fromOther[i] = Contender{CommFraction: c.CommFraction}
		maxOtherJ = max(maxOtherJ, c.MsgWords)
	}
	// {0, io+qm} and {qm, 0} pass stepOf whenever {qm, io} does, so the
	// kernel cannot fail on the views.
	var k [2]kernelScratchWide
	comp, same, _ := distributions(fromTarget, k[0].steps[:], k[0].rank[:], k[0].dist[:])
	_, other, _ := distributions(fromOther, k[1].steps[:], k[1].rank[:], k[1].dist[:])
	// CPU share of a transfer, as calibrated: the delay one CPU-bound
	// contender imposes on the ping-pong benchmark.
	cpuShare := lookup(t.CompOnComm, 1)
	// The delay^{i,j} column for the other links' traffic, resolved once;
	// that none is calibrated only matters if somebody uses one.
	otherJ, errNoCol := t.NearestJ(maxOtherJ)
	otherCol := t.CommOnComp[otherJ]
	s := 1.0
	for i := 1; i <= p; i++ {
		s += comp[i] * lookup(t.CompOnComm, i)
		s += same[i] * lookup(t.CommOnComm, i)
		if q := other[i]; q > 0 {
			if errNoCol != nil {
				return 0, errNoCol
			}
			s += q * lookup(otherCol, i) * cpuShare
		}
	}
	return s, nil
}
