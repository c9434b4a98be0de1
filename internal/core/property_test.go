package core

import (
	"math"
	"math/rand"
	"testing"
)

// randomMonotoneTables builds valid delay tables with random positive
// increments — monotone non-decreasing in the contender count i, as the
// physics demands (more contenders never means less interference).
func randomMonotoneTables(rng *rand.Rand, depth int) DelayTables {
	column := func(scale float64) []float64 {
		col := make([]float64, depth)
		v := 0.0
		for i := range col {
			v += rng.Float64() * scale
			col[i] = v
		}
		return col
	}
	return DelayTables{
		CompOnComm: column(0.4),
		CommOnComm: column(1.2),
		CommOnComp: map[int][]float64{
			1:    column(0.1),
			500:  column(0.8),
			1000: column(1.4),
		},
	}
}

// randomContenders draws n valid contenders.
func randomContenders(rng *rand.Rand, n int) []Contender {
	cs := make([]Contender, n)
	for i := range cs {
		comm := rng.Float64() * 0.9
		var io float64
		if rng.Intn(3) == 0 {
			io = rng.Float64() * (1 - comm)
		}
		cs[i] = Contender{CommFraction: comm, IOFraction: io, MsgWords: rng.Intn(1200)}
	}
	return cs
}

// TestPropertySlowdownNonDecreasingInP: the model's central qualitative
// prediction — both slowdowns are non-decreasing as contenders are
// added to the mix. Checked over random monotone tables and random
// contender prefixes: S(cs[:k]) ≤ S(cs[:k+1]) for every k, for
// CommSlowdown and for CompSlowdownWithJ at a fixed j (fixing j
// isolates the contender-count effect from the j-column switch).
func TestPropertySlowdownNonDecreasingInP(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const slack = 1e-12 // float summation noise only
	for trial := 0; trial < 300; trial++ {
		tables := randomMonotoneTables(rng, 8)
		cs := randomContenders(rng, 8)
		j := []int{0, 1, 250, 500, 750, 1000, 5000}[rng.Intn(7)]
		prevComm, prevComp := 0.0, 0.0
		for k := 0; k <= len(cs); k++ {
			comm, err := CommSlowdown(cs[:k], tables)
			if err != nil {
				t.Fatalf("trial %d k=%d: CommSlowdown: %v", trial, k, err)
			}
			comp, err := CompSlowdownWithJ(cs[:k], tables, j)
			if err != nil {
				t.Fatalf("trial %d k=%d j=%d: CompSlowdownWithJ: %v", trial, k, j, err)
			}
			if k == 0 {
				if comm != 1 || comp != 1 {
					t.Fatalf("trial %d: empty mix slowdowns (%v, %v), want (1, 1)", trial, comm, comp)
				}
			} else {
				if comm < prevComm-slack {
					t.Fatalf("trial %d: CommSlowdown decreased adding contender %d: %v -> %v\nadded %+v",
						trial, k, prevComm, comm, cs[k-1])
				}
				if comp < prevComp-slack {
					t.Fatalf("trial %d: CompSlowdown (j=%d) decreased adding contender %d: %v -> %v\nadded %+v",
						trial, j, k, prevComp, comp, cs[k-1])
				}
			}
			prevComm, prevComp = comm, comp
		}
	}
}

// TestPropertySlowdownBounds: slowdowns live in [1, p+1]-flavoured
// bounds — at least 1 (contention never speeds you up), and CompSlowdown
// never exceeds 1 + p·max(1, top delay column entry); the p+1 simple
// model is the exact upper envelope when every contender is pure
// computation.
func TestPropertySlowdownBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		tables := randomMonotoneTables(rng, 8)
		p := 1 + rng.Intn(8)
		cs := randomContenders(rng, p)
		comm, err := CommSlowdown(cs, tables)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := CompSlowdown(cs, tables)
		if err != nil {
			t.Fatal(err)
		}
		if comm < 1 || comp < 1 {
			t.Fatalf("trial %d: slowdown below 1 (comm %v, comp %v)", trial, comm, comp)
		}
		maxDelay := 1.0
		for _, col := range tables.CommOnComp {
			if last := col[len(col)-1]; last > maxDelay {
				maxDelay = last
			}
		}
		if bound := 1 + float64(p)*maxDelay; comp > bound+1e-9 {
			t.Fatalf("trial %d: CompSlowdown %v above envelope %v (p=%d)", trial, comp, bound, p)
		}
		// Pure-computation contenders: CompSlowdown degenerates to the
		// exact p+1 of the simple model (pcomp_p = 1, delay = p).
		pure := make([]Contender, p)
		pureComp, err := CompSlowdown(pure, tables)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pureComp-SimpleSlowdown(p)) > 1e-9 {
			t.Fatalf("trial %d: pure-comp CompSlowdown %v != p+1 = %v", trial, pureComp, SimpleSlowdown(p))
		}
	}
}

// TestPropertyPredictorMonotoneInIdenticalContenders lifts monotonicity
// to the Predictor API: predicted comm and comp costs are non-decreasing
// in the number of identical contenders sharing the node — the serving
// layer's degraded-mode comparisons rely on this ordering.
func TestPropertyPredictorMonotoneInIdenticalContenders(t *testing.T) {
	p, err := NewPredictor(fullCalibration())
	if err != nil {
		t.Fatal(err)
	}
	sets := []DataSet{{N: 200, Words: 800}}
	for _, proto := range []Contender{
		{CommFraction: 0.3, MsgWords: 700},
		{CommFraction: 0.7, MsgWords: 100, IOFraction: 0.1},
		{CommFraction: 0.05, MsgWords: 1000},
	} {
		prevComm, prevComp := 0.0, 0.0
		for n := 0; n <= 6; n++ {
			cs := make([]Contender, n)
			for i := range cs {
				cs[i] = proto
			}
			comm, err := p.PredictComm(HostToBack, sets, cs)
			if err != nil {
				t.Fatalf("n=%d: PredictComm: %v", n, err)
			}
			comp, err := p.PredictComp(3, cs)
			if err != nil {
				t.Fatalf("n=%d: PredictComp: %v", n, err)
			}
			if n > 0 && (comm < prevComm-1e-12 || comp < prevComp-1e-12) {
				t.Fatalf("proto %+v: cost decreased at n=%d: comm %v -> %v, comp %v -> %v",
					proto, n, prevComm, comm, prevComp, comp)
			}
			prevComm, prevComp = comm, comp
		}
	}
}
