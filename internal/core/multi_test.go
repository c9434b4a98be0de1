package core

import (
	"math"
	"math/rand"
	"testing"

	"contention/internal/prob"
)

func multiTables() DelayTables {
	return DelayTables{
		CompOnComm: []float64{0.4, 0.8},
		CommOnComm: []float64{0.3, 0.6},
		CommOnComp: map[int][]float64{
			1:    {0.2, 0.4},
			500:  {0.6, 1.2},
			1000: {0.7, 1.4},
		},
	}
}

// refCommSlowdownMulti is the multi-link mixture on three incremental
// prob.Calcs — computing, communicating on the target link, communicating
// on another — fed the contenders in the order given: the reference
// CommSlowdownMulti is held to, sharing nothing with the kernel beyond the
// DP recurrence.
func refCommSlowdownMulti(target LinkID, cs []MultiContender, t DelayTables) (float64, error) {
	comp, _ := prob.New()
	same, _ := prob.New()
	other, _ := prob.New()
	maxOtherJ := 0
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return 0, err
		}
		sameFrac, otherFrac := 0.0, 0.0
		if c.Link == target {
			sameFrac = c.CommFraction
		} else {
			otherFrac = c.CommFraction
			maxOtherJ = max(maxOtherJ, c.MsgWords)
		}
		if err := comp.Add(c.CompFraction()); err != nil {
			return 0, err
		}
		if err := same.Add(sameFrac); err != nil {
			return 0, err
		}
		if err := other.Add(otherFrac); err != nil {
			return 0, err
		}
	}
	cpuShare := lookup(t.CompOnComm, 1)
	s := 1.0
	for i := 1; i <= len(cs); i++ {
		s += comp.P(i) * lookup(t.CompOnComm, i)
		s += same.P(i) * lookup(t.CommOnComm, i)
		if p := other.P(i); p > 0 {
			d, err := t.CommOnCompDelay(i, maxOtherJ)
			if err != nil {
				return 0, err
			}
			s += p * d * cpuShare
		}
	}
	return s, nil
}

// randomTagged draws a contender set of one of differentialSet's shapes,
// each contender on one of links 0..3.
func randomTagged(rng *rand.Rand, p int) []MultiContender {
	cs := differentialSet(rng, p)
	tagged := make([]MultiContender, p)
	for i, c := range cs {
		tagged[i] = MultiContender{Contender: c, Link: LinkID(rng.Intn(4))}
	}
	return tagged
}

// TestCommSlowdownMultiReducesToTwoMachineOnSingleLink: with every
// contender on the target link the multi-link slowdown is the two-machine
// CommSlowdown, bit for bit, over random tables and sets of up to 80
// contenders (past the stack scratch).
func TestCommSlowdownMultiReducesToTwoMachineOnSingleLink(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 3000; trial++ {
		tables := randomMonotoneTables(rng, 1+rng.Intn(90))
		cs := differentialSet(rng, rng.Intn(81))
		target := LinkID(rng.Intn(4))
		tagged := make([]MultiContender, len(cs))
		for i, c := range cs {
			tagged[i] = MultiContender{Contender: c, Link: target}
		}
		want, err := CommSlowdown(cs, tables)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CommSlowdownMulti(target, tagged, tables)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d p=%d: single-link multi %v, %v; two-machine %v", trial, len(cs), got, err, want)
		}
	}
}

// TestCommSlowdownMultiPermutationInvariant: the multi-link slowdown is a
// function of the tagged multiset alone — the set reversed and shuffled
// gives the same bits, with random link tags, p in 0..80.
func TestCommSlowdownMultiPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2801))
	for trial := 0; trial < 3000; trial++ {
		tables := randomMonotoneTables(rng, 1+rng.Intn(90))
		cs := randomTagged(rng, rng.Intn(81))
		target := LinkID(rng.Intn(4))
		reversed := append([]MultiContender(nil), cs...)
		for i, k := 0, len(cs)-1; i < k; i, k = i+1, k-1 {
			reversed[i], reversed[k] = reversed[k], reversed[i]
		}
		shuffled := append([]MultiContender(nil), cs...)
		rng.Shuffle(len(cs), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })

		want, err := CommSlowdownMulti(target, cs, tables)
		if err != nil {
			t.Fatal(err)
		}
		for name, order := range map[string][]MultiContender{"reversed": reversed, "shuffled": shuffled} {
			if got, err := CommSlowdownMulti(target, order, tables); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d p=%d %s: %v, %v; as given %v", trial, len(cs), name, got, err, want)
			}
		}
	}
}

// TestCommSlowdownMultiMatchesReference: the kernel-backed multi-link
// slowdown agrees with the prob.Calc reference to 1e-12 relative, over
// random tables, link tags and sets of up to 80 contenders.
func TestCommSlowdownMultiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2802))
	for trial := 0; trial < 3000; trial++ {
		tables := randomMonotoneTables(rng, 1+rng.Intn(90))
		cs := randomTagged(rng, rng.Intn(81))
		target := LinkID(rng.Intn(4))
		want, err := refCommSlowdownMulti(target, cs, tables)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CommSlowdownMulti(target, cs, tables)
		if err != nil || math.Abs(got-want) > 1e-12*want {
			t.Fatalf("trial %d p=%d: %v, %v; reference %v", trial, len(cs), got, err, want)
		}
	}
}

func TestCommSlowdownMultiOtherLinkUsesScaledCPUTerm(t *testing.T) {
	// One contender, always communicating on the other link with
	// 500-word messages: contribution = delay^{1,500} × delay^1_comp.
	tagged := []MultiContender{
		{Contender: Contender{CommFraction: 1, MsgWords: 500}, Link: 1},
	}
	got, err := CommSlowdownMulti(0, tagged, multiTables())
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 0.6*0.4
	if !approx(got, want, 1e-12) {
		t.Fatalf("other-link slowdown %v, want %v", got, want)
	}
}

func TestCommSlowdownMultiSameVsOtherOrdering(t *testing.T) {
	// With these tables the same-link wire term (0.3) exceeds the scaled
	// other-link CPU term (0.6×0.4 = 0.24): moving a contender off the
	// target link must reduce the slowdown.
	c := Contender{CommFraction: 1, MsgWords: 500}
	same, err := CommSlowdownMulti(0, []MultiContender{{Contender: c, Link: 0}}, multiTables())
	if err != nil {
		t.Fatal(err)
	}
	other, err := CommSlowdownMulti(0, []MultiContender{{Contender: c, Link: 1}}, multiTables())
	if err != nil {
		t.Fatal(err)
	}
	if other >= same {
		t.Fatalf("other-link %v not below same-link %v", other, same)
	}
}

func TestCommSlowdownMultiNoContenders(t *testing.T) {
	got, err := CommSlowdownMulti(0, nil, multiTables())
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("empty set: %v, want 1", got)
	}
}

func TestCommSlowdownMultiValidation(t *testing.T) {
	bad := []MultiContender{{Contender: Contender{CommFraction: 2}, Link: 0}}
	if _, err := CommSlowdownMulti(0, bad, multiTables()); err == nil {
		t.Fatal("invalid contender accepted")
	}
	if _, err := CommSlowdownMulti(0, nil, DelayTables{CompOnComm: []float64{-1}}); err == nil {
		t.Fatal("invalid tables accepted")
	}
}
