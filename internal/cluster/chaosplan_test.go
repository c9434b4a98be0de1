package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// Wall-clock chaos planning. internal/faults perturbs the *simulated*
// platform from inside the DES kernel; the serving cluster lives in real
// time, so its chaos harness needs the same property — a fault schedule
// that is a pure function of one seed — without a kernel to hang events
// on. PlanChaos pre-computes the whole schedule up front: the plan (what
// dies, stalls, or degrades, when, for how long) is bit-deterministic
// for a fixed spec, and the applier just replays it against wall-clock
// timers. Re-running a chaos gate with the same seed re-fires the same
// faults in the same order at the same offsets.

// Chaos event kinds emitted by PlanChaos.
const (
	// ChaosKill fail-stops a replica; the supervisor restarts it.
	ChaosKill = "kill"
	// ChaosStall freezes a replica's request handling for Event.For.
	ChaosStall = "stall"
	// ChaosDegrade marks a replica's calibration untrusted (p+1 fallback
	// answers) until the paired ChaosRecover.
	ChaosDegrade = "degrade"
	// ChaosRecover clears a prior ChaosDegrade on the same target.
	ChaosRecover = "recover"
)

// ChaosEvent is one planned fault.
type ChaosEvent struct {
	// At is the offset from the start of the run.
	At time.Duration
	// Kind is one of the Chaos* constants.
	Kind string
	// Target is the replica index in [0, Replicas).
	Target int
	// For is the stall length (ChaosStall only; 0 otherwise — degrade
	// length is expressed as a separate ChaosRecover event).
	For time.Duration
}

// ChaosSpec parameterizes a chaos plan. Rates are mean inter-arrival
// times per kind (Poisson arrivals, exponential spacing); zero disables
// that kind.
type ChaosSpec struct {
	// Seed fixes the plan: equal specs produce identical plans.
	Seed int64
	// Replicas is the fleet size events target.
	Replicas int
	// Duration bounds event onsets to [0, Duration).
	Duration time.Duration

	// KillEvery is the mean spacing of fail-stop kills.
	KillEvery time.Duration
	// StallEvery / StallFor are the mean spacing and mean length of
	// request-handling stalls.
	StallEvery, StallFor time.Duration
	// DegradeEvery / DegradeFor are the mean spacing and mean length of
	// calibration-trust degradations.
	DegradeEvery, DegradeFor time.Duration
}

func (s ChaosSpec) validate() error {
	if s.Replicas < 1 {
		return fmt.Errorf("faults: chaos plan needs at least one replica (got %d)", s.Replicas)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("faults: chaos duration %v must be positive", s.Duration)
	}
	for _, d := range []time.Duration{s.KillEvery, s.StallEvery, s.StallFor, s.DegradeEvery, s.DegradeFor} {
		if d < 0 {
			return fmt.Errorf("faults: negative chaos spacing/duration %v", d)
		}
	}
	if s.StallEvery > 0 && s.StallFor == 0 {
		return fmt.Errorf("faults: StallEvery set without StallFor")
	}
	if s.DegradeEvery > 0 && s.DegradeFor == 0 {
		return fmt.Errorf("faults: DegradeEvery set without DegradeFor")
	}
	return nil
}

// PlanChaos expands a spec into its deterministic event schedule,
// sorted by onset (ties broken by kind then target, so the order is
// total and reproducible). Durations drawn for stalls and degradations
// are exponential around their means, clamped below at 1ms so an event
// always does something observable. ChaosRecover events paired with a
// degradation may land past Duration; the applier simply fires them
// during teardown slack.
func PlanChaos(spec ChaosSpec) ([]ChaosEvent, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var events []ChaosEvent

	// Kind order is fixed: every draw sequence is a function of the seed
	// alone, never of map iteration or scheduling.
	arrivals := func(every time.Duration, emit func(at time.Duration)) {
		if every <= 0 {
			return
		}
		at := time.Duration(rng.ExpFloat64() * float64(every))
		for at < spec.Duration {
			emit(at)
			at += time.Duration(rng.ExpFloat64() * float64(every))
		}
	}
	expDur := func(mean time.Duration) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		return max(d, time.Millisecond)
	}

	arrivals(spec.KillEvery, func(at time.Duration) {
		events = append(events, ChaosEvent{At: at, Kind: ChaosKill, Target: rng.Intn(spec.Replicas)})
	})
	arrivals(spec.StallEvery, func(at time.Duration) {
		events = append(events, ChaosEvent{At: at, Kind: ChaosStall, Target: rng.Intn(spec.Replicas), For: expDur(spec.StallFor)})
	})
	arrivals(spec.DegradeEvery, func(at time.Duration) {
		target := rng.Intn(spec.Replicas)
		length := expDur(spec.DegradeFor)
		events = append(events,
			ChaosEvent{At: at, Kind: ChaosDegrade, Target: target},
			ChaosEvent{At: at + length, Kind: ChaosRecover, Target: target})
	})

	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
	return events, nil
}

// ChaosSummary counts a plan's events by kind — the compact form chaos
// gates log so a failing run names the schedule it replayed.
func ChaosSummary(events []ChaosEvent) map[string]int {
	m := make(map[string]int, 4)
	for _, e := range events {
		m[e.Kind]++
	}
	return m
}

// PlanEnd reports the latest onset in the plan (0 for an empty plan),
// after which the applier may stop waiting.
func PlanEnd(events []ChaosEvent) time.Duration {
	var m time.Duration
	for _, e := range events {
		if e.At > m {
			m = e.At
		}
	}
	return m
}

func chaosSpec(seed int64) ChaosSpec {
	return ChaosSpec{
		Seed:         seed,
		Replicas:     4,
		Duration:     10 * time.Second,
		KillEvery:    2 * time.Second,
		StallEvery:   time.Second,
		StallFor:     200 * time.Millisecond,
		DegradeEvery: 3 * time.Second,
		DegradeFor:   time.Second,
	}
}

func TestPlanChaosDeterministic(t *testing.T) {
	a, err := PlanChaos(chaosSpec(42))
	if err != nil {
		t.Fatalf("PlanChaos: %v", err)
	}
	b, err := PlanChaos(chaosSpec(42))
	if err != nil {
		t.Fatalf("PlanChaos (rerun): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal specs produced different plans")
	}
	if len(a) == 0 {
		t.Fatal("plan is empty for a spec with all fault kinds enabled")
	}
	c, err := PlanChaos(chaosSpec(43))
	if err != nil {
		t.Fatalf("PlanChaos (other seed): %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanChaosShape(t *testing.T) {
	events, err := PlanChaos(chaosSpec(7))
	if err != nil {
		t.Fatalf("PlanChaos: %v", err)
	}
	spec := chaosSpec(7)
	degrades := map[int]int{}
	for i, e := range events {
		if i > 0 && events[i-1].At > e.At {
			t.Fatalf("plan not sorted at %d: %v after %v", i, e.At, events[i-1].At)
		}
		if e.Target < 0 || e.Target >= spec.Replicas {
			t.Fatalf("event %d targets replica %d outside [0,%d)", i, e.Target, spec.Replicas)
		}
		switch e.Kind {
		case ChaosKill, ChaosDegrade, ChaosRecover:
			if e.For != 0 {
				t.Fatalf("%s event carries a duration %v", e.Kind, e.For)
			}
			if e.Kind != ChaosRecover && e.At >= spec.Duration {
				t.Fatalf("%s onset %v past duration %v", e.Kind, e.At, spec.Duration)
			}
			if e.Kind == ChaosDegrade {
				degrades[e.Target]++
			} else if e.Kind == ChaosRecover {
				degrades[e.Target]--
			}
		case ChaosStall:
			if e.For < time.Millisecond {
				t.Fatalf("stall %d has sub-millisecond length %v", i, e.For)
			}
			if e.At >= spec.Duration {
				t.Fatalf("stall onset %v past duration %v", e.At, spec.Duration)
			}
		default:
			t.Fatalf("unknown event kind %q", e.Kind)
		}
	}
	for target, n := range degrades {
		if n != 0 {
			t.Fatalf("replica %d has %d unpaired degrade events", target, n)
		}
	}
	sum := ChaosSummary(events)
	if sum[ChaosDegrade] != sum[ChaosRecover] {
		t.Fatalf("summary degrades %d != recovers %d", sum[ChaosDegrade], sum[ChaosRecover])
	}
	if got := PlanEnd(events); got != events[len(events)-1].At {
		t.Fatalf("PlanEnd %v != last onset %v", got, events[len(events)-1].At)
	}
}

func TestPlanChaosValidation(t *testing.T) {
	bad := []ChaosSpec{
		{Replicas: 0, Duration: time.Second},
		{Replicas: 2, Duration: 0},
		{Replicas: 2, Duration: time.Second, KillEvery: -1},
		{Replicas: 2, Duration: time.Second, StallEvery: time.Second},   // no StallFor
		{Replicas: 2, Duration: time.Second, DegradeEvery: time.Second}, // no DegradeFor
	}
	for i, spec := range bad {
		if _, err := PlanChaos(spec); err == nil {
			t.Fatalf("spec %d validated, want error", i)
		}
	}
	// A kills-only plan is valid.
	events, err := PlanChaos(ChaosSpec{Seed: 1, Replicas: 2, Duration: 5 * time.Second, KillEvery: time.Second})
	if err != nil {
		t.Fatalf("kills-only spec: %v", err)
	}
	for _, e := range events {
		if e.Kind != ChaosKill {
			t.Fatalf("kills-only plan contains %q", e.Kind)
		}
	}
}
