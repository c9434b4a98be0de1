package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// Network chaos planning: the same pure-function-of-one-seed property
// as PlanChaos, but for the wire between a router and its remote
// replicas rather than the replica processes themselves. Events target
// links (proxy instances), and the kinds map onto what a real network
// does to long-lived HTTP connections: added latency, mid-stream
// resets, stalls (packets neither flowing nor failing), and full
// partitions. Partitions are special-cased for the availability
// guarantee chaos gates assert: PlanNetChaos serializes them — at most
// one link is partitioned at any moment, with a guard gap between heal
// and next onset — so a fleet of ≥2 replicas always has a reachable
// member even under the nastiest seed.

// Net chaos event kinds emitted by PlanNetChaos.
const (
	// NetChaosLatency adds Event.Latency of one-way delay on the link
	// for Event.For.
	NetChaosLatency = "latency"
	// NetChaosReset RSTs every connection currently open on the link.
	NetChaosReset = "reset"
	// NetChaosStall freezes the link's byte flow for Event.For without
	// closing anything (the worst case for timeout tuning).
	NetChaosStall = "stall"
	// NetChaosPartition makes the link refuse new connections and sever
	// existing ones until the paired NetChaosHeal.
	NetChaosPartition = "partition"
	// NetChaosHeal clears a prior NetChaosPartition on the same target.
	NetChaosHeal = "heal"
)

// NetChaosEvent is one planned network fault.
type NetChaosEvent struct {
	// At is the offset from the start of the run.
	At time.Duration
	// Kind is one of the NetChaos* constants.
	Kind string
	// Target is the link index in [0, Links).
	Target int
	// For is the fault length (latency, stall; partitions express theirs
	// as the paired heal event).
	For time.Duration
	// Latency is the added one-way delay (NetChaosLatency only).
	Latency time.Duration
}

// NetChaosSpec parameterizes a network chaos plan. Every *Every field
// is a mean inter-arrival time (Poisson arrivals); zero disables that
// kind.
type NetChaosSpec struct {
	// Seed fixes the plan: equal specs produce identical plans.
	Seed int64
	// Links is the number of proxied replica links events target.
	Links int
	// Duration bounds event onsets to [0, Duration).
	Duration time.Duration

	// LatencyEvery / LatencyFor / LatencyAdd: mean spacing, mean length,
	// and mean added delay of latency episodes.
	LatencyEvery, LatencyFor, LatencyAdd time.Duration
	// ResetEvery is the mean spacing of connection-reset bursts.
	ResetEvery time.Duration
	// StallEvery / StallFor are the mean spacing and mean length of
	// link stalls.
	StallEvery, StallFor time.Duration
	// PartitionEvery / PartitionFor are the mean spacing and mean length
	// of full partitions. Partitions are serialized across all links
	// with PartitionGuard between one heal and the next onset.
	PartitionEvery, PartitionFor time.Duration
	// PartitionGuard is the minimum healed gap between partitions.
	// Zero selects PartitionFor (one mean length of calm between storms).
	PartitionGuard time.Duration
}

func (s NetChaosSpec) validate() error {
	if s.Links < 1 {
		return fmt.Errorf("faults: net chaos plan needs at least one link (got %d)", s.Links)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("faults: net chaos duration %v must be positive", s.Duration)
	}
	for _, d := range []time.Duration{
		s.LatencyEvery, s.LatencyFor, s.LatencyAdd, s.ResetEvery,
		s.StallEvery, s.StallFor, s.PartitionEvery, s.PartitionFor, s.PartitionGuard,
	} {
		if d < 0 {
			return fmt.Errorf("faults: negative net chaos spacing/duration %v", d)
		}
	}
	if s.LatencyEvery > 0 && (s.LatencyFor == 0 || s.LatencyAdd == 0) {
		return fmt.Errorf("faults: LatencyEvery set without LatencyFor/LatencyAdd")
	}
	if s.StallEvery > 0 && s.StallFor == 0 {
		return fmt.Errorf("faults: StallEvery set without StallFor")
	}
	if s.PartitionEvery > 0 && s.PartitionFor == 0 {
		return fmt.Errorf("faults: PartitionEvery set without PartitionFor")
	}
	return nil
}

// PlanNetChaos expands a spec into its deterministic event schedule,
// sorted by onset with a total tie-break order. Partition onsets are
// pushed forward so no two partitions (on any link) overlap and a
// guard gap separates a heal from the next onset: with two or more
// links, at least one link is always unpartitioned.
func PlanNetChaos(spec NetChaosSpec) ([]NetChaosEvent, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.PartitionGuard == 0 {
		spec.PartitionGuard = spec.PartitionFor
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var events []NetChaosEvent

	// Fixed kind order: the draw sequence is a function of the seed
	// alone (same discipline as PlanChaos).
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

	arrivals(spec.LatencyEvery, func(at time.Duration) {
		events = append(events, NetChaosEvent{
			At: at, Kind: NetChaosLatency, Target: rng.Intn(spec.Links),
			For: expDur(spec.LatencyFor), Latency: expDur(spec.LatencyAdd),
		})
	})
	arrivals(spec.ResetEvery, func(at time.Duration) {
		events = append(events, NetChaosEvent{At: at, Kind: NetChaosReset, Target: rng.Intn(spec.Links)})
	})
	arrivals(spec.StallEvery, func(at time.Duration) {
		events = append(events, NetChaosEvent{
			At: at, Kind: NetChaosStall, Target: rng.Intn(spec.Links), For: expDur(spec.StallFor),
		})
	})
	// Partitions: serialized, guarded, never overlapping.
	var lastHeal time.Duration
	arrivals(spec.PartitionEvery, func(at time.Duration) {
		target := rng.Intn(spec.Links)
		length := expDur(spec.PartitionFor)
		onset := at
		if earliest := lastHeal + spec.PartitionGuard; lastHeal > 0 && onset < earliest {
			onset = earliest
		}
		if onset >= spec.Duration {
			return
		}
		lastHeal = onset + length
		events = append(events,
			NetChaosEvent{At: onset, Kind: NetChaosPartition, Target: target, For: length},
			NetChaosEvent{At: lastHeal, Kind: NetChaosHeal, Target: target})
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

// NetChaosSummary counts a plan's events by kind.
func NetChaosSummary(events []NetChaosEvent) map[string]int {
	m := make(map[string]int, 5)
	for _, e := range events {
		m[e.Kind]++
	}
	return m
}

func testNetSpec(seed int64) NetChaosSpec {
	return NetChaosSpec{
		Seed:           seed,
		Links:          3,
		Duration:       10 * time.Second,
		LatencyEvery:   400 * time.Millisecond,
		LatencyFor:     200 * time.Millisecond,
		LatencyAdd:     30 * time.Millisecond,
		ResetEvery:     600 * time.Millisecond,
		StallEvery:     800 * time.Millisecond,
		StallFor:       150 * time.Millisecond,
		PartitionEvery: 1500 * time.Millisecond,
		PartitionFor:   400 * time.Millisecond,
	}
}

func TestPlanNetChaosDeterministic(t *testing.T) {
	a, err := PlanNetChaos(testNetSpec(1996))
	if err != nil {
		t.Fatalf("PlanNetChaos: %v", err)
	}
	b, err := PlanNetChaos(testNetSpec(1996))
	if err != nil {
		t.Fatalf("PlanNetChaos: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal specs produced different plans")
	}
	if len(a) == 0 {
		t.Fatal("plan is empty")
	}
	c, err := PlanNetChaos(testNetSpec(7))
	if err != nil {
		t.Fatalf("PlanNetChaos: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	sum := NetChaosSummary(a)
	for _, kind := range []string{NetChaosLatency, NetChaosReset, NetChaosStall, NetChaosPartition} {
		if sum[kind] == 0 {
			t.Errorf("plan has no %s events: %v", kind, sum)
		}
	}
	if sum[NetChaosPartition] != sum[NetChaosHeal] {
		t.Errorf("%d partitions but %d heals", sum[NetChaosPartition], sum[NetChaosHeal])
	}
}

// TestPlanNetChaosPartitionsSerialized: partitions never overlap — on
// any link — and a guard gap separates a heal from the next onset, so
// a ≥2-replica fleet always has a reachable member.
func TestPlanNetChaosPartitionsSerialized(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		spec := testNetSpec(seed)
		spec.PartitionEvery = 300 * time.Millisecond // press hard
		events, err := PlanNetChaos(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var lastHeal time.Duration
		open := -1 // link currently partitioned, -1 none
		for _, e := range events {
			switch e.Kind {
			case NetChaosPartition:
				if open != -1 {
					t.Fatalf("seed %d: partition of link %d at %v while link %d still partitioned",
						seed, e.Target, e.At, open)
				}
				if lastHeal > 0 && e.At < lastHeal+spec.PartitionGuard {
					// Guard defaulted to PartitionFor inside PlanNetChaos.
					if e.At < lastHeal+spec.PartitionFor {
						t.Fatalf("seed %d: partition at %v violates guard after heal at %v", seed, e.At, lastHeal)
					}
				}
				open = e.Target
			case NetChaosHeal:
				if open != e.Target {
					t.Fatalf("seed %d: heal of link %d at %v but %d was partitioned", seed, e.Target, e.At, open)
				}
				open = -1
				lastHeal = e.At
			}
		}
	}
}

func TestPlanNetChaosValidation(t *testing.T) {
	bad := []NetChaosSpec{
		{Links: 0, Duration: time.Second},
		{Links: 2, Duration: 0},
		{Links: 2, Duration: time.Second, LatencyEvery: time.Second}, // no For/Add
		{Links: 2, Duration: time.Second, StallEvery: time.Second},   // no StallFor
		{Links: 2, Duration: time.Second, PartitionEvery: time.Second},
		{Links: 2, Duration: time.Second, ResetEvery: -time.Second},
	}
	for i, s := range bad {
		if _, err := PlanNetChaos(s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if _, err := PlanNetChaos(NetChaosSpec{Links: 1, Duration: time.Second}); err != nil {
		t.Errorf("empty-but-valid spec rejected: %v", err)
	}
}
