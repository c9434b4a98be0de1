// Slowdown kernel. The paper's mixture slowdowns are pure functions of
// (delay tables, contender multiset, j column), cheap enough — one
// O(p²) Poisson-binomial DP — to recompute on every prediction, so
// nothing is memoized and everything runs the one kernel below:
// Predictor methods and batches over the predictor's tables (validated,
// and the j grid sorted, once at construction), the package-level
// functions over tables they validate per call, and surface.Build
// through Predictor.HomogeneousSweep, which prices every count of one
// repeated contender with the same single DP step and mixture sums, one
// step per count. The kernel holds no lock and no state,
// allocates nothing for p ≤ kernelStackP, and takes the contenders'
// steps in canonical order, so its value is a function of the multiset
// alone: any permutation of one contender set, on any predictor, returns
// the same bits.
package core

import "math"

// kernelStackP is the contender count served from stack scratch — the
// serving layer's MaxContenders. Larger sets take their scratch from the
// heap; nothing else changes. kernelSmallP is the count up to which the
// narrow scratch is enough: an evaluation clears only the scratch it
// uses, and nearly every set a scheduler prices is this small.
const (
	kernelStackP = 64
	kernelSmallP = 16
)

// step is all the DP consumes of one contender: the probabilities that
// it communicates (qm) and that it computes (qc).
type step struct{ qm, qc float64 }

// kernelScratch and its wide twin are one evaluation's working memory:
// the ordered steps and, in dist, both distributions back to back.
// Declared as locals by the mixture functions, they stay on their stack.
type (
	kernelScratch struct {
		steps [kernelSmallP]step
		rank  [kernelSmallP]int32
		dist  [2 * (kernelSmallP + 1)]float64
	}
	kernelScratchWide struct {
		steps [kernelStackP]step
		rank  [kernelStackP]int32
		dist  [2 * (kernelStackP + 1)]float64
	}
)

// b2i is 1 for true: a comparison as arithmetic, not as a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stepOf reduces a contender to its step, ok false exactly when
// Contender.Validate refuses it (its two upper bounds follow from the
// lower bounds and the sum, rounding being monotone); Validate then
// names the fault. NaN fails every comparison.
func stepOf(ct *Contender) (step, bool) {
	qm, io := ct.CommFraction, ct.IOFraction
	qc := 1 - qm - io
	return step{qm, qc}, qm >= 0 && io >= 0 && qm+io <= 1 && qc >= 0 && ct.MsgWords >= 0
}

// distributions validates cs and runs the pcomp and pcomm
// Poisson-binomial DPs fused in one pass: comp[i] and comm[i] are the
// probabilities that exactly i contenders compute / communicate. steps,
// rank and dist are its scratch (dist zeroed and 2×(len(steps)+1) long);
// a set larger than steps takes all three from the heap.
//
// Each contender is reduced to its step as it is validated, and the
// steps — not the contenders — are put in canonical order, qm ascending
// and qc descending among equal qm, before the DP takes them. The DP's
// bits are a function of the sequence of step values, and the multiset
// fixes that sequence: steps that tie in the order are equal values,
// except that qm −0.0 ties with 0 — and those two are one step as well,
// because a distribution holds no −0 (its entries are sums of products
// of factors that are not negative, and +0 + −0 is +0), so x×1 + y×(±0)
// is x whichever zero it was. It is also the sequence that ordering the
// contenders by (CommFraction, IOFraction, MsgWords) gives, which is how
// the outputs on record — golden digests, replay traces — were
// evaluated: contenders tied on the first two fields reduce to one step
// value, so how MsgWords places them cannot show; qc = 1 − qm −
// IOFraction never increases with IOFraction, so among equal qm
// descending qc is ascending IOFraction; and two IOFractions that round
// to one qc are again one step value.
//
// A set that arrives in canonical order — every homogeneous mix, every
// pre-sorted caller — is recognised in the reduction pass and not
// reordered. Any other set is ordered without a data-dependent branch:
// a step's place is the number of steps that go before it by qm, arrival
// order breaking ties, each comparison counted as 0 or 1 (a never-seen
// mix mispredicts an insertion sort's exit once per contender). Steps
// tied on qm are then put right by an insertion pass that moves nothing
// else.
func distributions(cs []Contender, steps []step, rank []int32, dist []float64) (comp, comm []float64, err error) {
	p := len(cs)
	if p > len(steps) {
		steps, rank, dist = make([]step, p), make([]int32, p), make([]float64, 2*(p+1))
	}
	steps = steps[:p]
	unordered := 0
	prev := step{qm: -1} // before every valid step
	for i := range cs {
		s, ok := stepOf(&cs[i])
		if !ok {
			return nil, nil, cs[i].Validate()
		}
		unordered |= b2i(s.qm < prev.qm) | b2i(s.qm <= prev.qm)&b2i(s.qc > prev.qc)
		prev = s
		steps[i] = s
	}
	if unordered != 0 {
		rank = rank[:p]
		for i := 1; i < p; i++ {
			qm, before := steps[i].qm, int32(0)
			for j, s := range steps[:i] {
				b := int32(b2i(s.qm <= qm))
				before += b
				rank[j] += 1 - b
			}
			rank[i] = before
		}
		for i, r := range rank {
			qm := cs[i].CommFraction
			steps[r] = step{qm, 1 - qm - cs[i].IOFraction}
		}
		for i := 1; i < p; i++ {
			s, j := steps[i], i
			for ; j > 0 && steps[j-1].qm == s.qm && steps[j-1].qc < s.qc; j-- {
				steps[j] = steps[j-1]
			}
			steps[j] = s
		}
	}

	// One convolution step per contender and distribution, in place: the
	// new P(i) is P(i)×(1−q) + P(i−1)×q, with the old P(i−1) carried
	// along. Entries past the live ones are still zero, which is what a
	// step reads there. Steps go two to a pass — element i takes a's
	// step, then b's, on what a's step made of element i−1: the
	// multiplies and adds of two single passes, in their order, for half
	// the loads and stores. An odd count takes its first step alone.
	comp, comm = dist[:p+1], dist[p+1:2*(p+1)]
	comp[0], comm[0] = 1, 1
	n := 1 + p&1 // live entries
	if p&1 == 1 {
		takeStep(comp[:n], comm[:n], steps[0])
	}
	for k := p & 1; k < p; k += 2 {
		a, b := steps[k], steps[k+1]
		rca, rma := 1-a.qc, 1-a.qm
		rcb, rmb := 1-b.qc, 1-b.qm
		n += 2
		cv, mv := comp[:n], comm[:n]
		mv = mv[:len(cv)] // equal already; lets the compiler drop the bounds checks
		var pc, pm, pac, pam float64
		for i := range cv {
			c, m := cv[i], mv[i]
			ac, am := c*rca+pc*a.qc, m*rma+pm*a.qm
			cv[i], mv[i] = ac*rcb+pac*b.qc, am*rmb+pam*b.qm
			pc, pm, pac, pam = c, m, ac, am
		}
	}
	return comp, comm, nil
}

// takeStep is one contender's convolution step on both distributions, in
// place: comp and comm hold the live entries plus one, the last still
// zero, and all of them are live afterwards.
func takeStep(comp, comm []float64, a step) {
	rc, rm := 1-a.qc, 1-a.qm
	comm = comm[:len(comp)]
	var pc, pm float64
	for i := range comp {
		c, m := comp[i], comm[i]
		comp[i], comm[i] = c*rc+pc*a.qc, m*rm+pm*a.qm
		pc, pm = c, m
	}
}

// commSum is the communication mixture over the distributions of
// len(comp)−1 contenders.
func commSum(comp, comm, compOnComm, commOnComm []float64) float64 {
	s := 1.0
	for i := 1; i < len(comp); i++ {
		s += comp[i] * lookup(compOnComm, i)
		s += comm[i] * lookup(commOnComm, i)
	}
	return s
}

// compSum is the computation mixture over the distributions of
// len(comp)−1 contenders and the delay^{i,j} column col, read only where
// some contender communicates.
func compSum(comp, comm, col []float64) float64 {
	s := 1.0
	for i := 1; i < len(comp); i++ {
		s += comp[i] * float64(i)
		if p := comm[i]; p > 0 {
			s += p * lookup(col, i)
		}
	}
	return s
}

// commMixture is the communication slowdown
//
//	1 + Σ_i pcomp_i × delay^i_comp + Σ_i pcomm_i × delay^i_comm
//
// over the two delay tables it is handed.
func commMixture(cs []Contender, compOnComm, commOnComm []float64) (float64, error) {
	var k kernelScratch
	steps, rank, dist := k.steps[:], k.rank[:], k.dist[:]
	if len(cs) > kernelSmallP {
		var wide kernelScratchWide
		steps, rank, dist = wide.steps[:], wide.rank[:], wide.dist[:]
	}
	comp, comm, err := distributions(cs, steps, rank, dist)
	if err != nil {
		return 0, err
	}
	return commSum(comp, comm, compOnComm, commOnComm), nil
}

// compMixture is the computation slowdown
//
//	1 + Σ_i pcomp_i × i + Σ_i pcomm_i × delay^{i,j}_comm
//
// with the delay^{i,j} column nearest j (resolved against jGrid, the
// ascending calibrated sizes). The column is only consulted — and only
// required to exist — when some contender communicates.
func compMixture(cs []Contender, commOnComp map[int][]float64, jGrid []int, j int) (float64, error) {
	var k kernelScratch
	steps, rank, dist := k.steps[:], k.rank[:], k.dist[:]
	if len(cs) > kernelSmallP {
		var wide kernelScratchWide
		steps, rank, dist = wide.steps[:], wide.rank[:], wide.dist[:]
	}
	comp, comm, err := distributions(cs, steps, rank, dist)
	if err != nil {
		return 0, err
	}
	var col []float64
	for _, ct := range cs {
		if ct.CommFraction > 0 {
			nearest, err := NearestJ(jGrid, j)
			if err != nil {
				return 0, err
			}
			col = commOnComp[nearest]
			break
		}
	}
	return compSum(comp, comm, col), nil
}

// HomogeneousSweep prices n = 0..P identical contenders {CommFraction: f}
// in one DP, P = len(comm)−1: comm[n] is CommSlowdown of those n
// contenders and comp[c][n] their CompSlowdownWithJ at js[c]; every
// comp[c] is at least as long as comm. It fails where one of those calls
// would, with that call's error: the tables' own, f's as a contender's
// when P ≥ 1, NearestJ's when f > 0 and P ≥ 1. At f = 0 no column is
// consulted, so any js works there, even on tables with no delay^{i,j}
// columns. It allocates nothing for P ≤ kernelStackP.
//
// It takes f's step P times, applying commSum and compSum after each,
// and every value is the kernel's bit for bit: a homogeneous set is in
// canonical order already, so the kernel takes its P equal steps as
// given, and a paired DP pass is the multiplies and adds of two single
// passes, in their order, the entries past the live ones staying +0
// either way (see distributions). After n single steps the distributions
// are therefore the kernel's for n contenders, and the sums over them
// are the mixtures' own.
func (p *Predictor) HomogeneousSweep(f float64, js []int, comm []float64, comp [][]float64) error {
	if p.tablesErr != nil {
		return p.tablesErr
	}
	last := len(comm) - 1
	if last < 0 {
		return nil
	}
	ct := Contender{CommFraction: f}
	a, ok := stepOf(&ct)
	if !ok && last > 0 {
		return ct.Validate()
	}
	t := &p.cal.Tables
	var colBuf [4][]float64
	cols := colBuf[:0]
	for _, j := range js {
		var col []float64
		if f > 0 && last > 0 { // compMixture resolves only when someone communicates
			nearest, err := NearestJ(p.jGrid, j)
			if err != nil {
				return err
			}
			col = t.CommOnComp[nearest]
		}
		cols = append(cols, col)
	}
	var buf [2 * (kernelStackP + 1)]float64
	dist := buf[:]
	if last > kernelStackP {
		dist = make([]float64, 2*(last+1))
	}
	dc, dm := dist[:last+1], dist[last+1:2*(last+1)]
	dc[0], dm[0] = 1, 1
	for n := range comm {
		if n > 0 {
			takeStep(dc[:n+1], dm[:n+1], a)
		}
		comm[n] = commSum(dc[:n+1], dm[:n+1], t.CompOnComm, t.CommOnComm)
		for c, col := range cols {
			comp[c][n] = compSum(dc[:n+1], dm[:n+1], col)
		}
	}
	return nil
}

// autoJ is the paper's guidance for the delay^{i,j} column: the maximum
// message size used by the contenders.
func autoJ(cs []Contender) int {
	j := 0
	for _, c := range cs {
		if c.MsgWords > j {
			j = c.MsgWords
		}
	}
	return j
}

// NearestJ selects the calibrated column in grid (ascending) closest to
// the requested message size, applying the paper's footnote: the j=1
// column is only eligible when the size is below 95 words. It is the
// allocation-free core of DelayTables.NearestJ, shared with the
// precomputed-surface layer so both resolve identically.
func NearestJ(grid []int, words int) (int, error) {
	if len(grid) == 0 {
		return 0, errNoJColumns
	}
	bestJ, bestDist := 0, math.MaxInt
	for _, j := range grid {
		if j == 1 && words >= smallMessageLimit && len(grid) > 1 {
			continue
		}
		d := j - words
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestJ, bestDist = j, d
		}
	}
	return bestJ, nil
}
