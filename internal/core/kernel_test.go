package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"contention/internal/prob"
)

// The reference evaluation: the mixtures as the paper states them, on
// the incremental prob.Calc, contenders taken in the order given. The
// kernel is checked against it; it shares no arithmetic with it beyond
// the DP recurrence inside prob.

func probabilities(cs []Contender) (comp, comm *prob.Calc, err error) {
	comp, err = prob.New()
	if err != nil {
		return nil, nil, err
	}
	comm, err = prob.New()
	if err != nil {
		return nil, nil, err
	}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return nil, nil, err
		}
		if err := comp.Add(c.CompFraction()); err != nil {
			return nil, nil, err
		}
		if err := comm.Add(c.CommFraction); err != nil {
			return nil, nil, err
		}
	}
	return comp, comm, nil
}

func refCommSlowdown(cs []Contender, t DelayTables) (float64, error) {
	comp, comm, err := probabilities(cs)
	if err != nil {
		return 0, err
	}
	s := 1.0
	for i := 1; i <= len(cs); i++ {
		s += comp.P(i) * lookup(t.CompOnComm, i)
		s += comm.P(i) * lookup(t.CommOnComm, i)
	}
	return s, nil
}

func refCompSlowdownWithJ(cs []Contender, t DelayTables, j int) (float64, error) {
	comp, comm, err := probabilities(cs)
	if err != nil {
		return 0, err
	}
	s := 1.0
	for i := 1; i <= len(cs); i++ {
		s += comp.P(i) * float64(i)
		if comm.P(i) > 0 {
			d, err := t.CommOnCompDelay(i, j)
			if err != nil {
				return 0, err
			}
			s += comm.P(i) * d
		}
	}
	return s, nil
}

// lessContender is the parent kernel's canonical contender order.
func lessContender(a, b Contender) bool {
	if a.CommFraction != b.CommFraction {
		return a.CommFraction < b.CommFraction
	}
	if a.IOFraction != b.IOFraction {
		return a.IOFraction < b.IOFraction
	}
	return a.MsgWords < b.MsgWords
}

// referenceDistributions is the kernel as it stood before it ordered
// steps: validate, insertion-sort a copy of the contenders under
// lessContender, one contender per pass of the DP. The kernel must
// return its bits.
func referenceDistributions(cs []Contender) (comp, comm []float64, err error) {
	sorted := make([]Contender, len(cs))
	for i, ct := range cs {
		if err := ct.Validate(); err != nil {
			return nil, nil, err
		}
		if q := ct.CompFraction(); q < 0 {
			return nil, nil, fmt.Errorf("core: activity probability %v out of [0,1]", q)
		}
		j := i
		for ; j > 0 && lessContender(ct, sorted[j-1]); j-- {
			sorted[j] = sorted[j-1]
		}
		sorted[j] = ct
	}
	comp, comm = []float64{1}, []float64{1}
	for _, ct := range sorted {
		qc, qm := ct.CompFraction(), ct.CommFraction
		rc, rm := 1-qc, 1-qm
		comp, comm = append(comp, 0), append(comm, 0)
		var pc, pm float64
		for i := range comp {
			c, m := comp[i], comm[i]
			comp[i], comm[i] = c*rc+pc*qc, m*rm+pm*qm
			pc, pm = c, m
		}
	}
	return comp, comm, nil
}

// canonical returns cs sorted into the parent kernel's evaluation order.
func canonical(cs []Contender) []Contender {
	out := append([]Contender(nil), cs...)
	sort.Slice(out, func(i, k int) bool { return lessContender(out[i], out[k]) })
	return out
}

// kernelP draws a contender count that covers the empty set, the stack
// buffer's edge and the heap fallback beyond it.
func kernelP(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return kernelStackP - 1 + rng.Intn(3) // 63, 64, 65
	case 1:
		return kernelStackP + 1 + rng.Intn(16)
	default:
		return rng.Intn(20)
	}
}

var kernelJs = []int{0, 1, 94, 95, 250, 500, 750, 1000, 5000}

// TestKernelMatchesReference: on canonically ordered input the kernel
// agrees with the prob.Calc reference to 1e-12 relative, over random
// valid tables and multisets, for the comm mixture, the comp mixture
// at explicit j and under the auto-j rule — through the package-level
// functions and through a Predictor.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	const tol = 1e-12
	close := func(got, want float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }
	for trial := 0; trial < 1500; trial++ {
		tables := randomMonotoneTables(rng, 1+rng.Intn(90))
		cs := canonical(randomContenders(rng, kernelP(rng)))
		j := kernelJs[rng.Intn(len(kernelJs))]
		pred := NewPredictorLenient(Calibration{ToBack: Uniform(0.5, 10), ToHost: Uniform(0.5, 10), Tables: tables})

		want, err := refCommSlowdown(cs, tables)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CommSlowdown(cs, tables)
		if err != nil || !close(got, want) {
			t.Fatalf("trial %d p=%d: CommSlowdown = %v, %v; reference %v", trial, len(cs), got, err, want)
		}
		if viaPred, err := pred.CommSlowdown(cs); err != nil || viaPred != got {
			t.Fatalf("trial %d p=%d: Predictor.CommSlowdown = %v, %v; package-level %v", trial, len(cs), viaPred, err, got)
		}

		want, err = refCompSlowdownWithJ(cs, tables, j)
		if err != nil {
			t.Fatal(err)
		}
		got, err = CompSlowdownWithJ(cs, tables, j)
		if err != nil || !close(got, want) {
			t.Fatalf("trial %d p=%d j=%d: CompSlowdownWithJ = %v, %v; reference %v", trial, len(cs), j, got, err, want)
		}
		if viaPred, err := pred.CompSlowdownWithJ(cs, j); err != nil || viaPred != got {
			t.Fatalf("trial %d p=%d j=%d: Predictor.CompSlowdownWithJ = %v, %v; package-level %v", trial, len(cs), j, viaPred, err, got)
		}

		want, err = refCompSlowdownWithJ(cs, tables, autoJ(cs))
		if err != nil {
			t.Fatal(err)
		}
		if got, err = CompSlowdown(cs, tables); err != nil || !close(got, want) {
			t.Fatalf("trial %d p=%d: CompSlowdown = %v, %v; reference %v", trial, len(cs), got, err, want)
		}
	}
}

// TestKernelReferenceAgreeOnErrors: the kernel rejects what the
// reference rejects — invalid contenders, and a communicating
// contender with no delay^{i,j} column calibrated.
func TestKernelReferenceAgreeOnErrors(t *testing.T) {
	tables := fullCalibration().Tables
	noCols := DelayTables{CompOnComm: tables.CompOnComm, CommOnComm: tables.CommOnComm}
	for _, tc := range []struct {
		name   string
		cs     []Contender
		tables DelayTables
	}{
		{"negative comm", []Contender{{CommFraction: -0.1}}, tables},
		{"NaN comm", []Contender{{CommFraction: math.NaN()}}, tables},
		{"comm+io over 1", []Contender{{CommFraction: 0.7, IOFraction: 0.7}}, tables},
		{"negative words", []Contender{{CommFraction: 0.1, MsgWords: -1}}, tables},
		{"no columns", []Contender{{CommFraction: 0.1, MsgWords: 10}}, noCols},
	} {
		_, refErr := refCompSlowdownWithJ(tc.cs, tc.tables, 500)
		_, err := CompSlowdownWithJ(tc.cs, tc.tables, 500)
		if refErr == nil || err == nil {
			t.Errorf("%s: kernel err %v, reference err %v, want both non-nil", tc.name, err, refErr)
		}
	}
	// The multi-link mixture wants a column only for traffic on other links.
	onOther := []MultiContender{{Contender: Contender{CommFraction: 0.1, MsgWords: 10}, Link: 1}}
	if _, err := CommSlowdownMulti(0, onOther, noCols); err != errNoJColumns {
		t.Errorf("CommSlowdownMulti, other-link traffic, no columns: err %v, want %v", err, errNoJColumns)
	}
	if _, err := CommSlowdownMulti(1, onOther, noCols); err != nil {
		t.Errorf("CommSlowdownMulti, same-link traffic only, no columns: %v", err)
	}
	// Column choice cannot matter when nobody communicates.
	if s, err := CompSlowdownWithJ([]Contender{{}, {IOFraction: 0.5}}, noCols, 500); err != nil || s != 2.5 {
		t.Errorf("compute-only mix without columns = %v, %v, want 2.5", s, err)
	}
}

// TestKernelErrorParity: every way a contender can be invalid comes back
// from every entry point as the error string the parent kernel returned
// (referenceDistributions, and the literal here), wherever in the set
// the offender stands and whatever invalid contender follows it.
func TestKernelErrorParity(t *testing.T) {
	nan := math.NaN()
	cal := fullCalibration()
	pred, err := NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	sets := []DataSet{{N: 4, Words: 100}}
	entries := []struct {
		name string
		call func(cs []Contender) error
	}{
		{"PredictComm", func(cs []Contender) error { _, err := pred.PredictComm(HostToBack, sets, cs); return err }},
		{"PredictComp", func(cs []Contender) error { _, err := pred.PredictComp(2, cs); return err }},
		{"CommSlowdown", func(cs []Contender) error { _, err := CommSlowdown(cs, cal.Tables); return err }},
		{"CompSlowdownWithJ", func(cs []Contender) error { _, err := CompSlowdownWithJ(cs, cal.Tables, 500); return err }},
		{"CommSlowdownMulti", func(cs []Contender) error {
			tagged := make([]MultiContender, len(cs))
			for i, c := range cs {
				tagged[i] = MultiContender{Contender: c, Link: LinkID(i % 2)}
			}
			_, err := CommSlowdownMulti(0, tagged, cal.Tables)
			return err
		}},
	}
	for _, tc := range []struct {
		name string
		bad  Contender
		want string
	}{
		{"negative comm", Contender{CommFraction: -0.1}, "core: comm fraction -0.1 out of [0,1]"},
		{"comm over 1", Contender{CommFraction: 1.5}, "core: comm fraction 1.5 out of [0,1]"},
		{"NaN comm", Contender{CommFraction: nan}, "core: comm fraction NaN out of [0,1]"},
		{"infinite comm", Contender{CommFraction: math.Inf(1)}, "core: comm fraction +Inf out of [0,1]"},
		{"negative I/O", Contender{CommFraction: 0.2, IOFraction: -0.1}, "core: I/O fraction -0.1 out of [0,1]"},
		{"I/O over 1", Contender{IOFraction: 1.5}, "core: I/O fraction 1.5 out of [0,1]"},
		{"NaN I/O", Contender{CommFraction: 0.2, IOFraction: nan}, "core: I/O fraction NaN out of [0,1]"},
		{"comm + I/O over 1", Contender{CommFraction: 0.7, IOFraction: 0.7}, "core: comm 0.7 + I/O 0.7 fractions exceed 1"},
		{"negative words", Contender{CommFraction: 0.1, MsgWords: -1}, "core: message size -1 negative"},
		{"negative words after a bad fraction", Contender{CommFraction: -0.1, MsgWords: -1}, "core: comm fraction -0.1 out of [0,1]"},
		{"comp fraction rounded below 0", Contender{CommFraction: 1, IOFraction: 1e-20}, "core: activity probability -1e-20 out of [0,1]"},
	} {
		const p = 9
		for _, at := range []int{0, p / 2, p - 1} {
			cs := randomContenders(rand.New(rand.NewSource(int64(at))), p)
			cs[at] = tc.bad
			if at < p-1 {
				cs[p-1] = Contender{CommFraction: 2} // a later offender is not the one reported
			}
			if _, _, refErr := referenceDistributions(cs); refErr == nil || refErr.Error() != tc.want {
				t.Fatalf("%s at %d: parent kernel says %v, the table %q", tc.name, at, refErr, tc.want)
			}
			for _, e := range entries {
				if err := e.call(cs); err == nil || err.Error() != tc.want {
					t.Errorf("%s at %d: %s says %v, want %q", tc.name, at, e.name, err, tc.want)
				}
			}
		}
	}
}

// TestPredictPermutationInvariant: a prediction is a function of the
// contender multiset alone. Two fresh predictors given one multiset in
// different orders — reversed, shuffled — return the same bits, for all
// three Predict methods, over random valid tables and p in 0..80 (past
// the stack buffer, so the heap fallback is covered).
func TestPredictPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(670))
	sets := []DataSet{{N: 40, Words: 300}, {N: 3, Words: 2000}}
	for trial := 0; trial < 2000; trial++ {
		cal := Calibration{ToBack: Uniform(0.5, 10), ToHost: Uniform(0.2, 40), Tables: randomMonotoneTables(rng, 1+rng.Intn(90))}
		cs := randomContenders(rng, rng.Intn(81))
		j := kernelJs[rng.Intn(len(kernelJs))]
		dcomp := 0.1 + rng.Float64()*10

		orders := [][]Contender{cs, append([]Contender(nil), cs...), append([]Contender(nil), cs...)}
		for i, k := 0, len(cs)-1; i < k; i, k = i+1, k-1 {
			orders[1][i], orders[1][k] = orders[1][k], orders[1][i]
		}
		rng.Shuffle(len(cs), func(a, b int) { orders[2][a], orders[2][b] = orders[2][b], orders[2][a] })

		var want [3]uint64
		for o, order := range orders {
			p, err := NewPredictor(cal) // fresh: nothing carried from another order
			if err != nil {
				t.Fatal(err)
			}
			comm, err := p.PredictComm(HostToBack, sets, order)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := p.PredictComp(dcomp, order)
			if err != nil {
				t.Fatal(err)
			}
			compJ, err := p.PredictCompWithJ(dcomp, order, j)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]uint64{math.Float64bits(comm), math.Float64bits(comp), math.Float64bits(compJ)}
			if o == 0 {
				want = got
			} else if got != want {
				t.Fatalf("trial %d p=%d order %d: bits %x, first order %x (comm, comp, comp j=%d)",
					trial, len(cs), o, got, want, j)
			}
		}
	}
}

// differentialSet draws a contender set from one of the shapes the
// ordering can get wrong: random, all-equal, sorted, reverse-sorted,
// equal qm with distinct I/O fractions, I/O fractions that round to one
// qc, the zeros and one, and duplicates of earlier contenders.
func differentialSet(rng *rand.Rand, p int) []Contender {
	cs := randomContenders(rng, p)
	switch shape := rng.Intn(10); shape {
	case 0: // all equal
		for i := range cs {
			cs[i] = cs[0]
		}
	case 1, 2: // sorted, reverse-sorted
		sort.Slice(cs, func(i, k int) bool { return lessContender(cs[i], cs[k]) != (shape == 2) })
	case 3: // few distinct qm, distinct I/O fractions
		for i := range cs {
			cs[i].CommFraction = float64(rng.Intn(3)) / 4
			cs[i].IOFraction = rng.Float64() * (1 - cs[i].CommFraction)
		}
	case 4: // distinct I/O fractions that round to one qc
		for i := range cs {
			cs[i].CommFraction = 0.25
			cs[i].IOFraction = float64(rng.Intn(4)) * 0x1p-56
		}
	case 5: // -0.0, 0 and 1
		for i := range cs {
			cs[i].CommFraction = []float64{math.Copysign(0, -1), 0, 1, 0.5}[rng.Intn(4)]
			cs[i].IOFraction = 0
			if cs[i].CommFraction < 1 && rng.Intn(2) == 0 {
				cs[i].IOFraction = rng.Float64() / 2
			}
		}
	case 6: // duplicates of a random earlier contender
		for i := 1; i < len(cs); i++ {
			if rng.Intn(2) == 0 {
				cs[i] = cs[rng.Intn(i)]
			}
		}
	}
	return cs
}

// sameBits reports whether two distributions are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// kernelDistributions runs the kernel on a narrow scratch whatever the
// size (so p = 17..64 takes the heap here; the mixtures cover the wide
// scratch).
func kernelDistributions(cs []Contender) (comp, comm []float64, err error) {
	k := new(kernelScratch)
	return distributions(cs, k.steps[:], k.rank[:], k.dist[:])
}

// TestKernelMatchesParentBitForBit: ordering steps instead of
// contenders, two to a DP pass, changes no bit — both distributions and
// both mixtures equal the parent kernel's (referenceDistributions) over
// seeded sets of every shape differentialSet draws, at the sizes where
// the scratch changes hands.
func TestKernelMatchesParentBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tables := randomMonotoneTables(rng, 70)
	pred := NewPredictorLenient(Calibration{Tables: tables})
	sizes := []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 80}
	for trial := 0; trial < 120000; trial++ {
		p := rng.Intn(20)
		if trial%4 == 0 {
			p = sizes[trial/4%len(sizes)]
		}
		cs := differentialSet(rng, p)
		j := kernelJs[rng.Intn(len(kernelJs))]

		wantComp, wantComm, err := referenceDistributions(cs)
		if err != nil {
			t.Fatalf("trial %d: reference rejects %+v: %v", trial, cs, err)
		}
		comp, comm, err := kernelDistributions(cs)
		if err != nil || !sameBits(comp, wantComp) || !sameBits(comm, wantComm) {
			t.Fatalf("trial %d p=%d: distributions differ (err %v)\nset  %+v\ncomp %v\nwant %v\ncomm %v\nwant %v",
				trial, p, err, cs, comp, wantComp, comm, wantComm)
		}

		// The mixtures, summed as the kernel sums them over the parent's
		// distributions.
		wantS, wantC := 1.0, 1.0
		nearest, err := tables.NearestJ(j)
		if err != nil {
			t.Fatal(err)
		}
		col := tables.CommOnComp[nearest]
		for i := 1; i <= p; i++ {
			wantS += wantComp[i] * lookup(tables.CompOnComm, i)
			wantS += wantComm[i] * lookup(tables.CommOnComm, i)
			wantC += wantComp[i] * float64(i)
			if q := wantComm[i]; q > 0 {
				wantC += q * lookup(col, i)
			}
		}
		if got, err := pred.CommSlowdown(cs); err != nil || math.Float64bits(got) != math.Float64bits(wantS) {
			t.Fatalf("trial %d p=%d: CommSlowdown = %v, %v; parent %v\nset %+v", trial, p, got, err, wantS, cs)
		}
		if got, err := pred.CompSlowdownWithJ(cs, j); err != nil || math.Float64bits(got) != math.Float64bits(wantC) {
			t.Fatalf("trial %d p=%d j=%d: CompSlowdownWithJ = %v, %v; parent %v\nset %+v", trial, p, j, got, err, wantC, cs)
		}
	}
}

// homogeneousSet is n contenders {CommFraction: f}.
func homogeneousSet(n int, f float64) []Contender {
	cs := make([]Contender, n)
	for i := range cs {
		cs[i].CommFraction = f
	}
	return cs
}

// sweep runs HomogeneousSweep for n = 0..last over js.
func sweep(p *Predictor, f float64, js []int, last int) (comm []float64, comp [][]float64, err error) {
	comm = make([]float64, last+1)
	comp = make([][]float64, len(js))
	for c := range comp {
		comp[c] = make([]float64, last+1)
	}
	return comm, comp, p.HomogeneousSweep(f, js, comm, comp)
}

// TestHomogeneousSweepMatchesKernel: every value of a sweep is the
// kernel's for that many contenders, bit for bit, for every count up to
// 70 (past the stack scratch) at the zeros, one, dyadic and non-dyadic
// fractions, over every j the differentials use.
func TestHomogeneousSweepMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, tables := range []DelayTables{fullCalibration().Tables, randomMonotoneTables(rng, 70)} {
		pred := NewPredictorLenient(Calibration{Tables: tables})
		for _, last := range []int{0, 1, 2, 16, 17, 64, 65, 70} {
			for _, f := range []float64{0, math.Copysign(0, -1), 1, 0.5, 0.3, 1.0 / 3, 0x1p-9, 0.9990234375} {
				comm, comp, err := sweep(pred, f, kernelJs, last)
				if err != nil {
					t.Fatalf("P=%d f=%v: %v", last, f, err)
				}
				for n := 0; n <= last; n++ {
					cs := homogeneousSet(n, f)
					want, err := pred.CommSlowdown(cs)
					if err != nil || math.Float64bits(comm[n]) != math.Float64bits(want) {
						t.Fatalf("P=%d f=%v n=%d: comm %v, kernel %v (%v)", last, f, n, comm[n], want, err)
					}
					for c, j := range kernelJs {
						want, err := pred.CompSlowdownWithJ(cs, j)
						if err != nil || math.Float64bits(comp[c][n]) != math.Float64bits(want) {
							t.Fatalf("P=%d f=%v n=%d j=%d: comp %v, kernel %v (%v)", last, f, n, j, comp[c][n], want, err)
						}
					}
				}
			}
		}
	}
}

// TestHomogeneousSweepErrors: a sweep fails where the kernel would for
// some count it covers, with the kernel's error, and succeeds where every
// count does.
func TestHomogeneousSweepErrors(t *testing.T) {
	tables := fullCalibration().Tables
	noCols := DelayTables{CompOnComm: tables.CompOnComm, CommOnComm: tables.CommOnComm}
	broken := DelayTables{CompOnComm: []float64{-1}}
	for _, tc := range []struct {
		name   string
		tables DelayTables
		f      float64
		last   int
	}{
		{"NaN", tables, math.NaN(), 3},
		{"negative", tables, -0.25, 3},
		{"over 1", tables, 1.5, 1},
		{"NaN, no contenders", tables, math.NaN(), 0},
		{"no columns", noCols, 0.5, 3},
		{"no columns, nobody communicates", noCols, 0, 3},
		{"no columns, no contenders", noCols, 0.5, 0},
		{"invalid tables", broken, 0.5, 2},
	} {
		pred := NewPredictorLenient(Calibration{Tables: tc.tables})
		_, _, err := sweep(pred, tc.f, []int{500}, tc.last)
		var want error
		for n := 0; n <= tc.last && want == nil; n++ {
			if _, want = pred.CommSlowdown(homogeneousSet(n, tc.f)); want == nil {
				_, want = pred.CompSlowdownWithJ(homogeneousSet(n, tc.f), 500)
			}
		}
		if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Errorf("%s: sweep err %v, kernel err %v", tc.name, err, want)
		}
	}
}

// TestHomogeneousSweepAllocationFree: a sweep allocates nothing up to
// the stack scratch's width.
func TestHomogeneousSweepAllocationFree(t *testing.T) {
	pred := NewPredictorLenient(Calibration{Tables: randomMonotoneTables(rand.New(rand.NewSource(3)), 70)})
	comm, comp, err := sweep(pred, 0.3, []int{1, 500, 1000, 0}, kernelStackP)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := pred.HomogeneousSweep(0.3, []int{1, 500, 1000, 0}, comm, comp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("HomogeneousSweep allocates %.1f allocs/op, want 0", allocs)
	}
}

// sweepKey is one prediction of the bench module's lib_cold_sweep
// workload: a heterogeneous contender set no predictor has seen, priced
// as a transfer (1–3 data sets) or as a computation, 50/50.
type sweepKey struct {
	comm  bool
	sets  []DataSet
	dcomp float64
	cs    []Contender
}

func sweepKeys(rng *rand.Rand, n int) []sweepKey {
	keys := make([]sweepKey, n)
	for i := range keys {
		k := &keys[i]
		k.cs = make([]Contender, 1+rng.Intn(16))
		for c := range k.cs {
			k.cs[c] = Contender{CommFraction: rng.Float64() * 0.8, MsgWords: rng.Intn(2000)}
		}
		if k.comm = rng.Intn(2) == 0; k.comm {
			k.sets = make([]DataSet, 1+rng.Intn(3))
			for s := range k.sets {
				k.sets[s] = DataSet{N: 1 + rng.Intn(100), Words: rng.Intn(4000)}
			}
		} else {
			k.dcomp = 0.1 + rng.Float64()*10
		}
	}
	return keys
}

var benchSink float64

// BenchmarkKernelSweep is the lib_cold_sweep key shape: p uniform in
// 1..16, heterogeneous fractions, a fresh key every iteration from a
// pre-drawn pool far larger than any cache the CPU could keep warm.
func BenchmarkKernelSweep(b *testing.B) {
	p, err := NewPredictor(fullCalibration())
	if err != nil {
		b.Fatal(err)
	}
	keys := sweepKeys(rand.New(rand.NewSource(1)), 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &keys[i&(len(keys)-1)]
		var v float64
		if k.comm {
			v, err = p.PredictComm(HostToBack, k.sets, k.cs)
		} else {
			v, err = p.PredictComp(k.dcomp, k.cs)
		}
		if err != nil {
			b.Fatal(err)
		}
		benchSink += v
	}
}

// BenchmarkKernelHomogeneous is the serving shape — what the request
// corpora and surface.Build send: one contender repeated p times, so the
// set arrives in canonical order.
func BenchmarkKernelHomogeneous(b *testing.B) {
	pred, err := NewPredictor(fullCalibration())
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p <= 16; p++ {
		cs := make([]Contender, p)
		for i := range cs {
			cs[i] = Contender{CommFraction: 0.3, MsgWords: 500}
		}
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				comm, err := pred.CommSlowdown(cs)
				if err != nil {
					b.Fatal(err)
				}
				comp, err := pred.CompSlowdownWithJ(cs, 500)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += comm + comp
			}
		})
	}
}
