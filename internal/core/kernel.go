// Slowdown kernel. The paper's mixture slowdowns are pure functions of
// (delay tables, contender multiset, j column), cheap enough — one
// O(p²) Poisson-binomial DP — to recompute on every prediction, so
// nothing is memoized: every caller (Predictor methods, batches, the
// package-level functions, the surface builder) runs the one kernel
// below. It holds no lock and no state, allocates nothing for
// p ≤ kernelStackP, and evaluates the contenders in canonical order, so
// its value is a function of the multiset alone: any permutation of one
// contender set, on any predictor, returns the same bits.
package core

import (
	"fmt"
	"math"
)

// kernelStackP is the contender count served from stack scratch — the
// serving layer's MaxContenders. Larger sets spill to the heap through
// append; nothing else changes.
const kernelStackP = 64

// kernelScratch is one evaluation's working memory. Declared as a local
// by the mixture functions, it stays on their stack.
type kernelScratch struct {
	sorted [kernelStackP]Contender
	comp   [kernelStackP + 1]float64
	comm   [kernelStackP + 1]float64
}

// lessContender is the canonical contender order.
func lessContender(a, b Contender) bool {
	if a.CommFraction != b.CommFraction {
		return a.CommFraction < b.CommFraction
	}
	if a.IOFraction != b.IOFraction {
		return a.IOFraction < b.IOFraction
	}
	return a.MsgWords < b.MsgWords
}

// distributions validates cs, insertion-sorts a copy into canonical
// order (the sets are small) and runs the pcomp and pcomm
// Poisson-binomial DPs fused in one pass: comp[i] and comm[i] are the
// probabilities that exactly i contenders compute / communicate.
func (k *kernelScratch) distributions(cs []Contender) (comp, comm []float64, err error) {
	sorted := append(k.sorted[:0], cs...) // sizes the buffer; the heap takes over past kernelStackP
	for i, ct := range cs {
		if err := ct.Validate(); err != nil {
			return nil, nil, err
		}
		// Validate bounds the sum of the fractions only to rounding.
		if q := ct.CompFraction(); q < 0 {
			return nil, nil, fmt.Errorf("core: activity probability %v out of [0,1]", q)
		}
		j := i
		for ; j > 0 && lessContender(ct, sorted[j-1]); j-- {
			sorted[j] = sorted[j-1]
		}
		sorted[j] = ct
	}
	comp, comm = append(k.comp[:0], 1), append(k.comm[:0], 1)
	for _, ct := range sorted {
		// One convolution step per distribution, in place: the new P(i)
		// is P(i)×(1−q) + P(i−1)×q, with the old P(i−1) carried along.
		qc, qm := ct.CompFraction(), ct.CommFraction
		rc, rm := 1-qc, 1-qm
		comp, comm = append(comp, 0), append(comm, 0)
		comm = comm[:len(comp)] // equal already; lets the compiler drop the bounds checks
		var pc, pm float64
		for i := range comp {
			c, m := comp[i], comm[i]
			comp[i], comm[i] = c*rc+pc*qc, m*rm+pm*qm
			pc, pm = c, m
		}
	}
	return comp, comm, nil
}

// commMixture is the communication slowdown
//
//	1 + Σ_i pcomp_i × delay^i_comp + Σ_i pcomm_i × delay^i_comm
//
// over the two delay tables it is handed.
func commMixture(cs []Contender, compOnComm, commOnComm []float64) (float64, error) {
	var k kernelScratch
	comp, comm, err := k.distributions(cs)
	if err != nil {
		return 0, err
	}
	s := 1.0
	for i := 1; i <= len(cs); i++ {
		s += comp[i] * lookup(compOnComm, i)
		s += comm[i] * lookup(commOnComm, i)
	}
	return s, nil
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
	comp, comm, err := k.distributions(cs)
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
	s := 1.0
	for i := 1; i <= len(cs); i++ {
		s += comp[i] * float64(i)
		if p := comm[i]; p > 0 {
			s += p * lookup(col, i)
		}
	}
	return s, nil
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
