package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// testKeys generates nKeys seeded batch-key-shaped strings.
func testKeys(seed int64, nKeys int) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("comm|to_back|j=%d|0.%04d:%d;0.%04d:%d",
			rng.Intn(4), rng.Intn(10000), rng.Intn(2048), rng.Intn(10000), rng.Intn(2048))
	}
	return keys
}

func ownership(r *Ring, keys []string) map[int]int {
	owners := make(map[int]int)
	for _, k := range keys {
		owners[r.Lookup(k)]++
	}
	return owners
}

// TestRingBalance pins the load-balance property: with DefaultVnodes
// virtual nodes, every replica owns within 2x of its fair keyspace
// share, for fleet sizes the cluster actually runs.
func TestRingBalance(t *testing.T) {
	keys := testKeys(11, 20000)
	for _, n := range []int{2, 3, 4, 8} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		r := NewRing(DefaultVnodes, ids...)
		owners := ownership(r, keys)
		fair := float64(len(keys)) / float64(n)
		for id := 0; id < n; id++ {
			got := float64(owners[id])
			if got < fair/2 || got > fair*2 {
				t.Errorf("n=%d: replica %d owns %.0f keys, fair share %.0f (outside [0.5x, 2x])",
					n, id, got, fair)
			}
		}
	}
}

// TestRingJoinRemapsMinimally: adding a replica to an n-ring moves
// keys only TO the new replica, and fewer than 2/(n+1) of them.
func TestRingJoinRemapsMinimally(t *testing.T) {
	keys := testKeys(23, 20000)
	for _, n := range []int{2, 4, 8} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		before := NewRing(DefaultVnodes, ids...)
		after := before.With(n)
		moved := 0
		for _, k := range keys {
			was, is := before.Lookup(k), after.Lookup(k)
			if was == is {
				continue
			}
			moved++
			if is != n {
				t.Fatalf("n=%d: key moved from %d to %d, not to the joining replica %d", n, was, is, n)
			}
		}
		if bound := 2 * len(keys) / (n + 1); moved >= bound {
			t.Errorf("n=%d: join remapped %d of %d keys, want < %d", n, moved, len(keys), bound)
		}
		if moved == 0 {
			t.Errorf("n=%d: join remapped nothing — the new replica owns no keyspace", n)
		}
	}
}

// TestRingLeaveRemapsMinimally: removing a replica moves only the keys
// it owned (fewer than 2/n of all keys), and nothing else.
func TestRingLeaveRemapsMinimally(t *testing.T) {
	keys := testKeys(37, 20000)
	for _, n := range []int{2, 4, 8} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		before := NewRing(DefaultVnodes, ids...)
		victim := n - 1
		after := before.Without(victim)
		moved := 0
		for _, k := range keys {
			was, is := before.Lookup(k), after.Lookup(k)
			if was != victim && was != is {
				t.Fatalf("n=%d: key owned by surviving replica %d remapped to %d", n, was, is)
			}
			if was == victim {
				moved++
				if is == victim {
					t.Fatalf("n=%d: removed replica still owns a key", n)
				}
			}
		}
		if bound := 2 * len(keys) / n; moved >= bound {
			t.Errorf("n=%d: leave remapped %d of %d keys, want < %d", n, moved, len(keys), bound)
		}
	}
}

// TestRingInsertionOrderIrrelevant: the ring is a pure function of its
// membership set — replicas joining in any order yield identical
// routing, so restarts cannot silently reshuffle the keyspace.
func TestRingInsertionOrderIrrelevant(t *testing.T) {
	keys := testKeys(53, 2000)
	a := NewRing(DefaultVnodes, 0, 1, 2, 3)
	b := NewRing(DefaultVnodes, 3, 1, 0, 2)
	for _, k := range keys {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("key %q routes to %d vs %d under different insertion orders", k, a.Lookup(k), b.Lookup(k))
		}
		if !reflect.DeepEqual(a.Sequence(nil, k, 3), b.Sequence(nil, k, 3)) {
			t.Fatalf("key %q has order-dependent candidate sequence", k)
		}
	}
}

func TestRingSequence(t *testing.T) {
	r := NewRing(DefaultVnodes, 0, 1, 2, 3)
	keys := testKeys(71, 500)
	for _, k := range keys {
		seq := r.Sequence(nil, k, 3)
		if len(seq) != 3 {
			t.Fatalf("Sequence(%q, 3) returned %d ids", k, len(seq))
		}
		seen := map[int]bool{}
		for _, id := range seq {
			if seen[id] {
				t.Fatalf("Sequence(%q, 3) repeats replica %d", k, id)
			}
			seen[id] = true
		}
		if seq[0] != r.Lookup(k) {
			t.Fatalf("Sequence head %d != Lookup %d", seq[0], r.Lookup(k))
		}
		// n beyond membership truncates to the full membership.
		if got := r.Sequence(nil, k, 10); len(got) != 4 {
			t.Fatalf("Sequence(%q, 10) returned %d ids, want 4", k, len(got))
		}
		// Appends after what dst holds, and dedups only what it appended.
		if got := r.Sequence([]int{seq[1]}, k, 3); !reflect.DeepEqual(got, append([]int{seq[1]}, seq...)) {
			t.Fatalf("Sequence onto [%d] = %v, want that prefix then %v", seq[1], got, seq)
		}
	}
	// A stack buffer with room for n ids keeps the lookup off the heap.
	if a := testing.AllocsPerRun(100, func() {
		var buf [4]int
		if len(r.Sequence(buf[:0], keys[0], 3)) != 3 {
			t.Fatal("short sequence")
		}
	}); a != 0 {
		t.Fatalf("Sequence into a stack buffer allocates %.1f objects, want 0", a)
	}
}

// TestRingWeightedOwnership pins the weighted-balance property: each
// member's keyspace share is proportional to its weight within 2x, for
// weight spreads the fleet actually runs (unequal hosts up to 4:1).
func TestRingWeightedOwnership(t *testing.T) {
	keys := testKeys(13, 20000)
	for _, weights := range [][]float64{
		{1, 2},
		{1, 1, 2},
		{1, 2, 4},
		{0.5, 1, 1, 2},
	} {
		r := NewRing(DefaultVnodes)
		total := 0.0
		for id, w := range weights {
			r = r.WithWeight(id, w)
			total += w
		}
		owners := ownership(r, keys)
		for id, w := range weights {
			fair := float64(len(keys)) * w / total
			got := float64(owners[id])
			if got < fair/2 || got > fair*2 {
				t.Errorf("weights %v: replica %d owns %.0f keys, weighted fair share %.0f (outside [0.5x, 2x])",
					weights, id, got, fair)
			}
		}
	}
}

// TestRingReweightRemapsMinimally: changing one member's weight moves
// keys only to or from that member (bystanders keep every key), and the
// moved fraction is bounded by twice the member's share change.
func TestRingReweightRemapsMinimally(t *testing.T) {
	keys := testKeys(29, 20000)
	const n = 4
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	before := NewRing(DefaultVnodes, ids...)
	for _, newW := range []float64{2, 0.5} {
		after := before.WithWeight(0, newW)
		moved := 0
		for _, k := range keys {
			was, is := before.Lookup(k), after.Lookup(k)
			if was == is {
				continue
			}
			moved++
			if was != 0 && is != 0 {
				t.Fatalf("reweight(0, %g): key moved between bystanders %d -> %d", newW, was, is)
			}
			if newW > 1 && is != 0 {
				t.Fatalf("reweight(0, %g): weight increase moved a key away from member 0 (%d -> %d)", newW, was, is)
			}
			if newW < 1 && was != 0 {
				t.Fatalf("reweight(0, %g): weight decrease moved a key toward member 0 (%d -> %d)", newW, was, is)
			}
		}
		shareBefore := 1.0 / n
		shareAfter := newW / (newW + n - 1)
		bound := 2 * math.Abs(shareAfter-shareBefore) * float64(len(keys))
		if float64(moved) >= bound {
			t.Errorf("reweight(0, %g) remapped %d of %d keys, want < %.0f", newW, moved, len(keys), bound)
		}
		if moved == 0 {
			t.Errorf("reweight(0, %g) remapped nothing", newW)
		}
	}
}

// TestRingZeroWeightOwnsNothing: a zero-weight member stays on the
// member list but owns no keys and never appears in a candidate
// sequence; restoring its weight brings it back.
func TestRingZeroWeightOwnsNothing(t *testing.T) {
	keys := testKeys(41, 5000)
	r := NewRing(DefaultVnodes, 0, 1, 2)
	zeroed := r.WithWeight(1, 0)
	if zeroed.Size() != 3 {
		t.Fatalf("zero-weight member left the member list (size %d)", zeroed.Size())
	}
	for _, k := range keys {
		if zeroed.Lookup(k) == 1 {
			t.Fatalf("zero-weight member owns key %q", k)
		}
		for _, id := range zeroed.Sequence(nil, k, 3) {
			if id == 1 {
				t.Fatalf("zero-weight member appears in candidate sequence for %q", k)
			}
		}
	}
	// Surviving members split the orphaned keys; nothing else moved.
	for _, k := range keys {
		was, is := r.Lookup(k), zeroed.Lookup(k)
		if was != 1 && was != is {
			t.Fatalf("zeroing member 1 remapped a bystander key %d -> %d", was, is)
		}
	}
	restored := zeroed.WithWeight(1, 1)
	for _, k := range keys {
		if restored.Lookup(k) != r.Lookup(k) {
			t.Fatal("restoring the weight did not restore the original routing")
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(DefaultVnodes)
	if got := empty.Lookup("anything"); got != -1 {
		t.Fatalf("empty ring Lookup = %d, want -1", got)
	}
	if got := empty.Sequence(nil, "anything", 2); got != nil {
		t.Fatalf("empty ring Sequence = %v, want nil", got)
	}
	one := empty.With(7)
	if got := one.Lookup("anything"); got != 7 {
		t.Fatalf("one-member ring Lookup = %d, want 7", got)
	}
	if one.With(7) != one {
		t.Fatal("adding an existing member built a new ring")
	}
	if one.Without(99) != one {
		t.Fatal("removing an absent member built a new ring")
	}
	if got := one.Without(7).Size(); got != 0 {
		t.Fatalf("ring size after removing last member = %d", got)
	}
	if empty.Size() != 0 {
		t.Fatal("With/Without mutated the receiver ring")
	}
}
