package core

import (
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

// canonical returns cs sorted into the kernel's evaluation order.
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
	// Column choice cannot matter when nobody communicates.
	if s, err := CompSlowdownWithJ([]Contender{{}, {IOFraction: 0.5}}, noCols, 500); err != nil || s != 2.5 {
		t.Errorf("compute-only mix without columns = %v, %v, want 2.5", s, err)
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
