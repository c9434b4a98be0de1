// Package scenario generates production-shaped prediction traffic: a
// composable set of seeded arrival-process generators (constant-rate
// Poisson, multi-period sinusoid, Markov-modulated on/off bursts, and
// flash-crowd ramps) combined per cohort with a contender-multiset
// workload distribution, yielding one deterministic schedule of
// timestamped requests from a seed.
//
// The contention effects the model exists to capture show up under
// structured load — diurnal cycles, bursts, flash crowds — in ways
// uniform closed/open-loop traffic never exercises: idle waves and
// bursts propagate through contended resources (Afzal et al., see
// PAPERS.md), and the batcher/surface hot paths behave very differently
// under cohort-skewed key distributions than under uniform draws.
//
// Determinism contract: Schedule(seed, horizon) is a pure function of
// (scenario definition, seed, horizon) — bit-identical across runs,
// GOMAXPROCS settings, and hosts. Every random draw comes from
// per-cohort rand.Rand streams derived from the seed and the cohort
// name, consumed in one fixed sequential order; nothing reads the wall
// clock or global rand state. That contract is what makes the trace
// record/replay differential (trace.go) a byte-level gate.
package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"contention/internal/serve"
)

// Arrivals is one arrival-process generator: a realization is the
// ascending list of arrival offsets (seconds from run start) over a
// horizon, drawn deterministically from the supplied rng. The interface
// is package-sealed (validate is unexported); compose new processes out
// of the provided generators and the Cohort/Scenario combinators.
type Arrivals interface {
	// Times appends one realization's arrival offsets, in ascending
	// order within [0, horizon), to dst.
	Times(rng *rand.Rand, horizon float64, dst []float64) []float64
	// Spec renders the canonical spec-string form (see Parse).
	Spec() string
	validate() error
}

// poissonThin draws an inhomogeneous Poisson process by thinning: a
// homogeneous candidate stream at maxRate, each candidate kept with
// probability rate(t)/maxRate. Exact for any rate function bounded by
// maxRate, and deterministic in the rng draw order.
func poissonThin(rng *rand.Rand, horizon, maxRate float64, rate func(t float64) float64, dst []float64) []float64 {
	if maxRate <= 0 {
		return dst
	}
	for t := rng.ExpFloat64() / maxRate; t < horizon; t += rng.ExpFloat64() / maxRate {
		if rng.Float64()*maxRate <= rate(t) {
			dst = append(dst, t)
		}
	}
	return dst
}

// --- constant ---------------------------------------------------------------

// Constant is a homogeneous Poisson process at Rate req/s — the
// steady-state baseline every other generator perturbs.
type Constant struct {
	Rate float64
}

func (c Constant) validate() error {
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("scenario: constant rate %v must be positive and finite", c.Rate)
	}
	return nil
}

// Times draws exponential inter-arrival gaps at Rate.
func (c Constant) Times(rng *rand.Rand, horizon float64, dst []float64) []float64 {
	for t := rng.ExpFloat64() / c.Rate; t < horizon; t += rng.ExpFloat64() / c.Rate {
		dst = append(dst, t)
	}
	return dst
}

// Spec implements Arrivals.
func (c Constant) Spec() string { return fmt.Sprintf("constant(rate=%g)", c.Rate) }

// --- sinusoid ---------------------------------------------------------------

// Term is one harmonic of a Sinusoid: rate is modulated by
// Amp·sin(2πt/Period + Phase), with Amp relative to the mean.
type Term struct {
	Amp    float64       // relative amplitude in [0, 1]
	Period time.Duration // cycle length
	Phase  float64       // radians
}

// Sinusoid is an inhomogeneous Poisson process whose rate is a
// multi-period sinusoid around Mean:
//
//	rate(t) = Mean · (1 + Σᵢ Ampᵢ·sin(2πt/Periodᵢ + Phaseᵢ))
//
// The amplitude sum is capped at 1 so the rate never clips at zero and
// the realized arrival count integrates to Mean·horizon — the diurnal
// (plus lunch-dip, plus weekly) shape of real service traffic.
type Sinusoid struct {
	Mean  float64
	Terms []Term
}

func (s Sinusoid) validate() error {
	if !(s.Mean > 0) || math.IsInf(s.Mean, 0) {
		return fmt.Errorf("scenario: sinusoid mean %v must be positive and finite", s.Mean)
	}
	if len(s.Terms) == 0 {
		return errors.New("scenario: sinusoid needs at least one term")
	}
	sum := 0.0
	for i, term := range s.Terms {
		if term.Amp < 0 || term.Amp > 1 || math.IsNaN(term.Amp) {
			return fmt.Errorf("scenario: sinusoid term %d amp %v outside [0,1]", i, term.Amp)
		}
		if term.Period <= 0 {
			return fmt.Errorf("scenario: sinusoid term %d period %v must be positive", i, term.Period)
		}
		if math.IsNaN(term.Phase) || math.IsInf(term.Phase, 0) {
			return fmt.Errorf("scenario: sinusoid term %d phase %v must be finite", i, term.Phase)
		}
		sum += term.Amp
	}
	if sum > 1 {
		return fmt.Errorf("scenario: sinusoid amplitude sum %.3g exceeds 1 (rate would clip at zero)", sum)
	}
	return nil
}

// RateAt reports the instantaneous rate at offset t seconds.
func (s Sinusoid) RateAt(t float64) float64 {
	r := 1.0
	for _, term := range s.Terms {
		r += term.Amp * math.Sin(2*math.Pi*t/term.Period.Seconds()+term.Phase)
	}
	return s.Mean * r
}

func (s Sinusoid) maxRate() float64 {
	sum := 1.0
	for _, term := range s.Terms {
		sum += term.Amp
	}
	return s.Mean * sum
}

// Times implements Arrivals by thinning against the amplitude envelope.
func (s Sinusoid) Times(rng *rand.Rand, horizon float64, dst []float64) []float64 {
	return poissonThin(rng, horizon, s.maxRate(), s.RateAt, dst)
}

// Spec implements Arrivals.
func (s Sinusoid) Spec() string {
	out := fmt.Sprintf("sinusoid(mean=%g", s.Mean)
	for i, term := range s.Terms {
		n := suffix(i)
		out += fmt.Sprintf(",amp%s=%g,period%s=%s", n, term.Amp, n, term.Period)
		if term.Phase != 0 {
			out += fmt.Sprintf(",phase%s=%g", n, term.Phase)
		}
	}
	return out + ")"
}

func suffix(i int) string {
	if i == 0 {
		return ""
	}
	return fmt.Sprint(i + 1)
}

// --- markov-modulated bursts ------------------------------------------------

// MarkovBurst is a two-state Markov-modulated Poisson process: the
// generator alternates between an "off" state emitting at Base and an
// "on" state emitting at Burst, with exponentially distributed dwell
// times MeanOn/MeanOff. The initial state is drawn from the stationary
// distribution, so the duty cycle matches MeanOn/(MeanOn+MeanOff) from
// t=0 — no warm-up transient.
type MarkovBurst struct {
	Base, Burst     float64
	MeanOn, MeanOff time.Duration
}

func (m MarkovBurst) validate() error {
	if m.Base < 0 || math.IsNaN(m.Base) || math.IsInf(m.Base, 0) {
		return fmt.Errorf("scenario: burst base rate %v must be non-negative and finite", m.Base)
	}
	if !(m.Burst > m.Base) || math.IsInf(m.Burst, 0) {
		return fmt.Errorf("scenario: burst rate %v must exceed base rate %v", m.Burst, m.Base)
	}
	if m.MeanOn <= 0 || m.MeanOff <= 0 {
		return fmt.Errorf("scenario: burst dwell times on=%v off=%v must be positive", m.MeanOn, m.MeanOff)
	}
	return nil
}

// DutyCycle is the stationary probability of the on (burst) state.
func (m MarkovBurst) DutyCycle() float64 {
	on, off := m.MeanOn.Seconds(), m.MeanOff.Seconds()
	return on / (on + off)
}

// MeanRate is the stationary mean arrival rate.
func (m MarkovBurst) MeanRate() float64 {
	d := m.DutyCycle()
	return d*m.Burst + (1-d)*m.Base
}

// Times walks the state chain: for each dwell segment, a homogeneous
// Poisson stream at the state's rate. One rng drives both the dwell
// sequence and the within-segment arrivals, in segment order.
func (m MarkovBurst) Times(rng *rand.Rand, horizon float64, dst []float64) []float64 {
	on := rng.Float64() < m.DutyCycle()
	for t := 0.0; t < horizon; {
		mean, rate := m.MeanOff.Seconds(), m.Base
		if on {
			mean, rate = m.MeanOn.Seconds(), m.Burst
		}
		end := t + rng.ExpFloat64()*mean
		if end > horizon {
			end = horizon
		}
		if rate > 0 {
			for a := t + rng.ExpFloat64()/rate; a < end; a += rng.ExpFloat64() / rate {
				dst = append(dst, a)
			}
		}
		t, on = end, !on
	}
	return dst
}

// Spec implements Arrivals.
func (m MarkovBurst) Spec() string {
	return fmt.Sprintf("burst(base=%g,burst=%g,on=%s,off=%s)", m.Base, m.Burst, m.MeanOn, m.MeanOff)
}

// --- flash crowd ------------------------------------------------------------

// FlashCrowd models a viral spike: Base rate until Start, a linear ramp
// to Peak over Ramp (monotone by construction — the property the tests
// pin), Peak held for Hold, then a linear decay back to Base over
// Decay.
type FlashCrowd struct {
	Base, Peak float64
	Start      time.Duration
	Ramp       time.Duration
	Hold       time.Duration
	Decay      time.Duration
}

func (f FlashCrowd) validate() error {
	if f.Base < 0 || math.IsNaN(f.Base) || math.IsInf(f.Base, 0) {
		return fmt.Errorf("scenario: flash base rate %v must be non-negative and finite", f.Base)
	}
	if !(f.Peak > f.Base) || math.IsInf(f.Peak, 0) {
		return fmt.Errorf("scenario: flash peak %v must exceed base %v", f.Peak, f.Base)
	}
	if f.Start < 0 || f.Ramp <= 0 || f.Hold < 0 || f.Decay < 0 {
		return fmt.Errorf("scenario: flash start=%v ramp=%v hold=%v decay=%v must be non-negative (ramp positive)",
			f.Start, f.Ramp, f.Hold, f.Decay)
	}
	return nil
}

// RateAt reports the instantaneous rate at offset t seconds.
func (f FlashCrowd) RateAt(t float64) float64 {
	start, ramp := f.Start.Seconds(), f.Ramp.Seconds()
	hold, decay := f.Hold.Seconds(), f.Decay.Seconds()
	switch {
	case t < start:
		return f.Base
	case t < start+ramp:
		return f.Base + (f.Peak-f.Base)*(t-start)/ramp
	case t < start+ramp+hold:
		return f.Peak
	case decay > 0 && t < start+ramp+hold+decay:
		return f.Peak - (f.Peak-f.Base)*(t-start-ramp-hold)/decay
	default:
		return f.Base
	}
}

// Times implements Arrivals by thinning against the peak rate.
func (f FlashCrowd) Times(rng *rand.Rand, horizon float64, dst []float64) []float64 {
	return poissonThin(rng, horizon, f.Peak, f.RateAt, dst)
}

// Spec implements Arrivals.
func (f FlashCrowd) Spec() string {
	return fmt.Sprintf("flash(base=%g,peak=%g,start=%s,ramp=%s,hold=%s,decay=%s)",
		f.Base, f.Peak, f.Start, f.Ramp, f.Hold, f.Decay)
}

// --- workload ---------------------------------------------------------------

// Workload is one cohort's request distribution: a pool of contender
// multisets drawn once per schedule (so the cohort's traffic repeats
// batch keys, the shape micro-batching and affinity routing exist for)
// and per-request kind/direction/j draws.
type Workload struct {
	// Mixes is the contender-multiset pool size (default 8).
	Mixes int
	// MaxP bounds the contender count per mix (default 4).
	MaxP int
	// Homogeneous is the fraction of pool mixes built from one spec
	// replicated p times — the class the precomputed surface covers
	// (default 0.5).
	Homogeneous float64
	// Comm is the probability a request is a comm query (default 0.5);
	// the rest are comp queries.
	Comm float64
	// J is the probability a comp query pins an explicit delay column
	// (default 0).
	J float64
}

func (w Workload) withDefaults() Workload {
	if w.Mixes == 0 {
		w.Mixes = 8
	}
	if w.MaxP == 0 {
		w.MaxP = 4
	}
	if w.Homogeneous == 0 {
		w.Homogeneous = 0.5
	}
	if w.Comm == 0 {
		w.Comm = 0.5
	}
	return w
}

func (w Workload) validate() error {
	w = w.withDefaults()
	if w.Mixes < 1 || w.Mixes > 4096 {
		return fmt.Errorf("scenario: workload mixes %d outside [1,4096]", w.Mixes)
	}
	if w.MaxP < 0 || w.MaxP > serve.MaxContenders {
		return fmt.Errorf("scenario: workload maxp %d outside [0,%d]", w.MaxP, serve.MaxContenders)
	}
	for name, v := range map[string]float64{"homog": w.Homogeneous, "comm": w.Comm, "j": w.J} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("scenario: workload %s %v outside [0,1]", name, v)
		}
	}
	return nil
}

// Spec renders only the non-default keys, so default workloads print
// nothing and Parse round-trips.
func (w Workload) spec() string {
	d := Workload{}.withDefaults()
	w2 := w.withDefaults()
	out := ""
	if w2.Mixes != d.Mixes {
		out += fmt.Sprintf(",mixes=%d", w2.Mixes)
	}
	if w2.MaxP != d.MaxP {
		out += fmt.Sprintf(",maxp=%d", w2.MaxP)
	}
	if w2.Homogeneous != d.Homogeneous {
		out += fmt.Sprintf(",homog=%g", w2.Homogeneous)
	}
	if w2.Comm != d.Comm {
		out += fmt.Sprintf(",comm=%g", w2.Comm)
	}
	if w2.J != d.J {
		out += fmt.Sprintf(",j=%g", w2.J)
	}
	return out
}

// pool materializes the cohort's contender-multiset pool from rng.
func (w Workload) pool(rng *rand.Rand) [][]serve.ContenderSpec {
	w = w.withDefaults()
	mixes := make([][]serve.ContenderSpec, w.Mixes)
	nHomog := int(math.Round(float64(w.Mixes) * w.Homogeneous))
	draw := func() serve.ContenderSpec {
		return serve.ContenderSpec{
			CommFraction: math.Round(rng.Float64()*80) / 100,
			MsgWords:     rng.Intn(2000),
		}
	}
	for m := range mixes {
		p := rng.Intn(w.MaxP + 1)
		specs := make([]serve.ContenderSpec, p)
		if m < nHomog {
			one := draw()
			for i := range specs {
				specs[i] = one
			}
		} else {
			for i := range specs {
				specs[i] = draw()
			}
		}
		mixes[m] = specs
	}
	return mixes
}

// request draws one request over the pool.
func (w Workload) request(rng *rand.Rand, pool [][]serve.ContenderSpec) *serve.Request {
	w = w.withDefaults()
	req := &serve.Request{Contenders: pool[rng.Intn(len(pool))]}
	if rng.Float64() < w.Comm {
		req.Kind = "comm"
		req.Dir = "to_back"
		if rng.Intn(2) == 0 {
			req.Dir = "to_host"
		}
		req.Sets = []serve.DataSetSpec{{N: 1 + rng.Intn(100), Words: rng.Intn(4000)}}
		return req
	}
	req.Kind = "comp"
	d := 0.1 + rng.Float64()*10
	req.Dcomp = &d
	if rng.Float64() < w.J {
		j := rng.Intn(4)
		req.J = &j
	}
	return req
}

// Draw realizes n requests from rng: one pool, then n requests over it —
// the uniform traffic a closed- or open-loop run cycles through.
func (w Workload) Draw(rng *rand.Rand, n int) []*serve.Request {
	pool := w.pool(rng)
	reqs := make([]*serve.Request, n)
	for i := range reqs {
		reqs[i] = w.request(rng, pool)
	}
	return reqs
}

// --- cohorts and scenarios --------------------------------------------------

// Cohort is one traffic population: an arrival process plus the
// request distribution its arrivals draw from.
type Cohort struct {
	Name     string
	Arrivals Arrivals
	Workload Workload
}

// Scenario is a set of cohorts whose merged arrival streams form one
// deterministic schedule — the Mix combinator. A single-cohort scenario
// is just a plain generator with a workload attached.
type Scenario struct {
	Name    string
	Cohorts []Cohort
}

// Mix combines cohorts into one scenario.
func Mix(name string, cohorts ...Cohort) *Scenario {
	return &Scenario{Name: name, Cohorts: cohorts}
}

// Single wraps one arrival process and workload as a scenario.
func Single(name string, arr Arrivals, wl Workload) *Scenario {
	return Mix(name, Cohort{Name: name, Arrivals: arr, Workload: wl})
}

// Validate checks every cohort definition.
func (s *Scenario) Validate() error {
	if s == nil || len(s.Cohorts) == 0 {
		return errors.New("scenario: no cohorts")
	}
	seen := map[string]bool{}
	for i, c := range s.Cohorts {
		if c.Name == "" {
			return fmt.Errorf("scenario: cohort %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario: duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Arrivals == nil {
			return fmt.Errorf("scenario: cohort %q has no arrival process", c.Name)
		}
		if err := c.Arrivals.validate(); err != nil {
			return fmt.Errorf("cohort %q: %w", c.Name, err)
		}
		if err := c.Workload.validate(); err != nil {
			return fmt.Errorf("cohort %q: %w", c.Name, err)
		}
	}
	return nil
}

// Spec renders the scenario in the canonical spec-string grammar
// (cohorts joined with "+"); Parse(s.Spec()) reproduces the scenario.
func (s *Scenario) Spec() string {
	parts := make([]string, len(s.Cohorts))
	for i, c := range s.Cohorts {
		g := c.Arrivals.Spec()
		wl := c.Workload.spec()
		if wl != "" {
			g = g[:len(g)-1] + wl + ")"
		}
		parts[i] = c.Name + "=" + g
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "+"
		}
		out += p
	}
	return out
}

// Item is one scheduled request.
type Item struct {
	// Offset is the arrival time from run start.
	Offset time.Duration
	// Cohort names the emitting cohort.
	Cohort string
	// Req is the request to issue (valid by construction).
	Req *serve.Request
}

// cohortSeed derives a cohort's private rng seed from the scenario seed
// and the cohort name (FNV-1a over the name, mixed with the seed by a
// splitmix64 finalizer), so cohorts draw independent streams and adding
// a cohort never perturbs the others.
func cohortSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := uint64(seed) ^ h.Sum64()
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Schedule realizes the scenario: every cohort's arrival process and
// workload are drawn from a seed-derived private rng, and the merged
// stream is sorted by (offset, cohort, sequence). The result is
// bit-deterministic in (scenario, seed, horizon) and independent of
// GOMAXPROCS — generation is strictly sequential per cohort.
func (s *Scenario) Schedule(seed int64, horizon time.Duration) ([]Item, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("scenario: horizon %v must be positive", horizon)
	}
	var items []Item
	for _, c := range s.Cohorts {
		rng := rand.New(rand.NewSource(cohortSeed(seed, c.Name)))
		pool := c.Workload.pool(rng)
		times := c.Arrivals.Times(rng, horizon.Seconds(), nil)
		mArrivals.With(c.Name).Add(int64(len(times)))
		for _, t := range times {
			items = append(items, Item{
				Offset: time.Duration(t * float64(time.Second)),
				Cohort: c.Name,
				Req:    c.Workload.request(rng, pool),
			})
		}
	}
	// The per-cohort streams are already sorted; the merge key adds
	// cohort name and insertion order so equal offsets order stably.
	sort.SliceStable(items, func(i, j int) bool { return items[i].Offset < items[j].Offset })
	return items, nil
}

// EncodeItem renders the item's request in the given wire format
// ("json" or "binary") — the bytes a trace stores and a replay sends.
func EncodeItem(it Item, format string) ([]byte, error) {
	switch format {
	case FormatJSON:
		return marshalJSONRequest(it.Req)
	case FormatBinary:
		return serve.AppendBinaryRequest(nil, it.Req)
	default:
		return nil, fmt.Errorf("scenario: unknown wire format %q (want %q or %q)", format, FormatJSON, FormatBinary)
	}
}
