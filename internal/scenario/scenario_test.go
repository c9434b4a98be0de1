package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// countArrivals realizes one generator over horizon seconds.
func countArrivals(t *testing.T, arr Arrivals, seed int64, horizon float64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return arr.Times(rng, horizon, nil)
}

// TestConstantRate pins the constant generator's realized rate to its
// configured rate: over 5 seeds × 100 s at 400 req/s the pooled count
// has a relative sigma of ~0.07%, so ±1% is a >10-sigma band.
func TestConstantRate(t *testing.T) {
	const rate, horizon = 400.0, 100.0
	total := 0
	for seed := int64(1); seed <= 5; seed++ {
		total += len(countArrivals(t, Constant{Rate: rate}, seed, horizon))
	}
	want := rate * horizon * 5
	if rel := math.Abs(float64(total)-want) / want; rel > 0.01 {
		t.Fatalf("constant: realized %d arrivals, want %.0f ±1%% (off %.2f%%)", total, want, rel*100)
	}
}

// TestSinusoidIntegratesToMean is the satellite property: the
// multi-period sinusoid's arrival count integrates to Mean·horizon
// within 1% — the amplitude terms reshape the traffic but add none.
func TestSinusoidIntegratesToMean(t *testing.T) {
	const mean, horizon = 400.0, 100.0
	s := Sinusoid{Mean: mean, Terms: []Term{
		{Amp: 0.5, Period: 2 * time.Second},
		{Amp: 0.25, Period: 500 * time.Millisecond},
		{Amp: 0.1, Period: 10 * time.Second, Phase: 1.2},
	}}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for seed := int64(1); seed <= 5; seed++ {
		total += len(countArrivals(t, s, seed, horizon))
	}
	want := mean * horizon * 5
	if rel := math.Abs(float64(total)-want) / want; rel > 0.01 {
		t.Fatalf("sinusoid: realized %d arrivals, want %.0f ±1%% (off %.2f%%)", total, want, rel*100)
	}
	// The modulation itself must be present: the peak-quarter of the
	// dominant 2 s cycle must out-arrive the trough-quarter decisively.
	times := countArrivals(t, s, 7, horizon)
	peak, trough := 0, 0
	for _, at := range times {
		phase := math.Mod(at, 2.0) / 2.0
		switch {
		case phase >= 0.125 && phase < 0.375: // around sin peak t=0.5s
			peak++
		case phase >= 0.625 && phase < 0.875: // around sin trough t=1.5s
			trough++
		}
	}
	if peak <= trough*2 {
		t.Fatalf("sinusoid: peak quarter %d vs trough quarter %d — modulation missing", peak, trough)
	}
}

// TestMarkovBurstDutyCycle is the satellite property: the realized mean
// rate matches the stationary mixture d·Burst + (1−d)·Base, and the
// burst-attributable overshoot above Base matches the stationary duty
// cycle.
func TestMarkovBurstDutyCycle(t *testing.T) {
	m := MarkovBurst{Base: 100, Burst: 1500, MeanOn: 200 * time.Millisecond, MeanOff: 600 * time.Millisecond}
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.DutyCycle(), 0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("duty cycle %v, want %v", got, want)
	}
	const horizon = 200.0
	total := 0
	for seed := int64(1); seed <= 5; seed++ {
		total += len(countArrivals(t, m, seed, horizon))
	}
	realized := float64(total) / (horizon * 5)
	// Dwell-segment noise dominates Poisson noise here: 200 s holds only
	// ~250 on/off cycles, so the realized rate carries a few-percent
	// sigma. 10% is still tight enough to catch a wrong stationary
	// distribution (e.g. always starting "off" would bias low by design).
	if rel := math.Abs(realized-m.MeanRate()) / m.MeanRate(); rel > 0.10 {
		t.Fatalf("burst: realized mean rate %.1f, want %.1f ±10%% (off %.2f%%)", realized, m.MeanRate(), rel*100)
	}
	// Back out the realized duty cycle from the rate mixture.
	d := (realized - m.Base) / (m.Burst - m.Base)
	if math.Abs(d-m.DutyCycle()) > 0.05 {
		t.Fatalf("burst: realized duty cycle %.3f, want %.3f ±0.05", d, m.DutyCycle())
	}
}

// TestFlashCrowdMonotoneRamp is the satellite property: the rate
// function is monotone non-decreasing from t=0 through the end of the
// ramp, holds Peak exactly, and returns to Base after the decay.
func TestFlashCrowdMonotoneRamp(t *testing.T) {
	f := FlashCrowd{Base: 150, Peak: 3000,
		Start: time.Second, Ramp: 400 * time.Millisecond,
		Hold: 600 * time.Millisecond, Decay: 400 * time.Millisecond}
	if err := f.validate(); err != nil {
		t.Fatal(err)
	}
	rampEnd := (f.Start + f.Ramp).Seconds()
	prev := math.Inf(-1)
	for t64 := 0.0; t64 <= rampEnd+1e-9; t64 += rampEnd / 4000 {
		r := f.RateAt(t64)
		if r < prev-1e-9 {
			t.Fatalf("flash: rate decreased before peak: rate(%.4f)=%.3f after %.3f", t64, r, prev)
		}
		prev = r
	}
	if got := f.RateAt(rampEnd + f.Hold.Seconds()/2); got != f.Peak {
		t.Fatalf("flash: hold rate %v, want peak %v", got, f.Peak)
	}
	after := (f.Start + f.Ramp + f.Hold + f.Decay).Seconds() + 0.001
	if got := f.RateAt(after); got != f.Base {
		t.Fatalf("flash: post-decay rate %v, want base %v", got, f.Base)
	}
	// The realized schedule must reflect the spike: arrivals per second
	// during the hold window ≫ arrivals per second before the start.
	times := countArrivals(t, f, 3, 3.0)
	var before, during int
	for _, at := range times {
		if at < f.Start.Seconds() {
			before++
		} else if at >= rampEnd && at < rampEnd+f.Hold.Seconds() {
			during++
		}
	}
	beforeRate := float64(before) / f.Start.Seconds()
	duringRate := float64(during) / f.Hold.Seconds()
	if duringRate < 5*beforeRate {
		t.Fatalf("flash: hold rate %.1f/s not ≫ pre-start rate %.1f/s", duringRate, beforeRate)
	}
}

// TestScheduleBitDeterministic is the satellite determinism property:
// 20 seeds, every builtin scenario, schedule realized twice —
// reflect.DeepEqual down to the float bits — and once under a different
// GOMAXPROCS setting.
func TestScheduleBitDeterministic(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			a, err := sc.Schedule(seed, 500*time.Millisecond)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			b, err := sc.Schedule(seed, 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: schedule not deterministic across runs", name, seed)
			}
		}
	}
	// GOMAXPROCS independence: generation is strictly sequential, so a
	// single-P run must reproduce the default-P run bit for bit.
	sc, _ := Builtin("mixed")
	want, err := sc.Schedule(42, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(1)
	got, err := sc.Schedule(42, time.Second)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("schedule differs under GOMAXPROCS=1")
	}
}

// TestScheduleShape pins structural invariants: offsets ascending
// within horizon, cohorts named, every request valid for its wire
// forms, and adding a cohort never perturbs the existing cohorts'
// streams (the per-cohort seed derivation property).
func TestScheduleShape(t *testing.T) {
	sc, _ := Builtin("mixed")
	items, err := sc.Schedule(7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("empty schedule")
	}
	cohorts := map[string]int{}
	var prev time.Duration = -1
	for i, it := range items {
		if it.Offset < prev {
			t.Fatalf("item %d: offset %v < previous %v", i, it.Offset, prev)
		}
		prev = it.Offset
		if it.Offset < 0 || it.Offset >= time.Second {
			t.Fatalf("item %d: offset %v outside [0, horizon)", i, it.Offset)
		}
		cohorts[it.Cohort]++
		if _, err := EncodeItem(it, FormatBinary); err != nil {
			t.Fatalf("item %d (%s): invalid for binary encoding: %v", i, it.Cohort, err)
		}
	}
	for _, want := range []string{"batch", "interactive", "crowd"} {
		if cohorts[want] == 0 {
			t.Fatalf("cohort %q emitted nothing (got %v)", want, cohorts)
		}
	}

	// Cohort-stream independence: dropping the crowd cohort leaves the
	// batch and interactive streams bit-identical.
	sub := Mix("sub", sc.Cohorts[0], sc.Cohorts[1])
	subItems, err := sub.Schedule(7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var full []Item
	for _, it := range items {
		if it.Cohort != "crowd" {
			full = append(full, it)
		}
	}
	if !reflect.DeepEqual(full, subItems) {
		t.Fatal("removing a cohort perturbed the remaining cohorts' streams")
	}
}

// TestSpecRoundTrip pins the spec grammar: every builtin renders to a
// spec string that parses back to an identical scenario definition.
func TestSpecRoundTrip(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := sc.Spec()
		back, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: Parse(%q): %v", name, spec, err)
		}
		if !reflect.DeepEqual(sc.Cohorts, back.Cohorts) {
			t.Fatalf("%s: spec %q did not round-trip:\n got %#v\nwant %#v", name, spec, back.Cohorts, sc.Cohorts)
		}
		// And the round-tripped scenario schedules identically.
		a, err := sc.Schedule(3, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Schedule(3, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: round-tripped scenario schedules differently", name)
		}
	}
}

// TestParseRejects pins the parser's failure modes.
func TestParseRejects(t *testing.T) {
	cases := []string{
		"",
		"nonsense",
		"constant",                    // no parens
		"constant()",                  // missing rate
		"constant(rate=abc)",          // not a number
		"constant(rate=100,rate=200)", // duplicate key
		"constant(rate=100,bogus=1)",  // unknown key
		"warp(rate=100)",              // unknown generator
		"sinusoid(mean=100,amp=0.9,period=1s,amp2=0.5,period2=2s)", // amp sum > 1
		"burst(base=100,burst=50,on=1s,off=1s)",                    // burst ≤ base
		"flash(base=1,peak=2,start=0s,ramp=0s,hold=1s,decay=1s)",   // zero ramp
	}
	for _, spec := range cases {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

// TestWorkloadValidation pins workload bounds checking.
func TestWorkloadValidation(t *testing.T) {
	bad := []Workload{
		{Mixes: -1},
		{Mixes: 5000},
		{MaxP: 65},
		{Comm: 1.5},
		{Homogeneous: -0.1},
		{J: math.NaN()},
	}
	for i, w := range bad {
		if err := w.validate(); err == nil {
			t.Errorf("workload %d (%+v) validated, want error", i, w)
		}
	}
	if err := (Workload{}).validate(); err != nil {
		t.Errorf("zero workload (defaults) rejected: %v", err)
	}
}

// TestGeneratorValidation sweeps invalid generator parameters.
func TestGeneratorValidation(t *testing.T) {
	bad := []Arrivals{
		Constant{Rate: 0},
		Constant{Rate: math.Inf(1)},
		Sinusoid{Mean: 100},
		Sinusoid{Mean: -1, Terms: []Term{{Amp: 0.5, Period: time.Second}}},
		Sinusoid{Mean: 100, Terms: []Term{{Amp: 1.5, Period: time.Second}}},
		Sinusoid{Mean: 100, Terms: []Term{{Amp: 0.5, Period: 0}}},
		MarkovBurst{Base: 100, Burst: 100, MeanOn: time.Second, MeanOff: time.Second},
		MarkovBurst{Base: 100, Burst: 200, MeanOn: 0, MeanOff: time.Second},
		FlashCrowd{Base: 100, Peak: 50, Start: 0, Ramp: time.Second},
		FlashCrowd{Base: 100, Peak: 200, Start: -time.Second, Ramp: time.Second},
	}
	for i, a := range bad {
		if err := a.validate(); err == nil {
			t.Errorf("generator %d (%s) validated, want error", i, a.Spec())
		}
	}
}

// TestCohortSeedSpread sanity-checks the seed derivation: distinct
// cohort names yield distinct streams for the same scenario seed.
func TestCohortSeedSpread(t *testing.T) {
	seen := map[int64]string{}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("cohort-%d", i)
		s := cohortSeed(12345, name)
		if prev, dup := seen[s]; dup {
			t.Fatalf("cohort seeds collide: %q and %q → %d", prev, name, s)
		}
		seen[s] = name
	}
}

// MeanRate is the stationary mean arrival rate.
func (m MarkovBurst) MeanRate() float64 {
	d := m.DutyCycle()
	return d*m.Burst + (1-d)*m.Base
}
