// Package cluster is the self-healing serving fleet: a supervisor that
// spawns and babysits N prediction replicas, and an affinity router in
// front of them.
//
// Routing is keyed on the canonical contender-multiset batch key
// (serve.Request.BatchKey): the whole point of micro-batching is that
// concurrent requests sharing a key collapse into one slowdown DP, so a
// load balancer that sprays equal keys across the fleet would dilute
// exactly the efficiency it is supposed to scale. A consistent-hash
// ring keeps equal keys on one replica — and keeps most keys where they
// were when membership changes, so a crash-restart reshuffles ~1/N of
// the keyspace instead of all of it.
//
// Around the ring sit the production concerns: per-replica circuit
// breakers over a rolling error rate, load-aware spill to the next ring
// node when a replica's in-flight count crosses its high-water mark,
// bounded retries under a cluster-wide retry budget, optional hedged
// second requests for tail-latency protection, supervised restart with
// seeded exponential backoff and a crash-loop budget, and graceful
// draining on shutdown or replica removal.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the virtual-node count per replica. 128 points per
// replica keeps the keyspace share of each replica within a few tens of
// percent of fair for small fleets (the ring property tests pin the
// bound) while membership changes stay O(vnodes·log).
const DefaultVnodes = 128

// Ring is an immutable weighted consistent-hash ring over replica ids.
// Mutation returns a new ring (With/WithWeight/Without), so a router can
// swap rings atomically while lookups proceed lock-free on the old one.
//
// Weights express unequal hosts: a member of weight w gets ~w·vnodes
// points, so its keyspace share is proportional to its weight. A member
// carries the same vnode labels at every weight — weight w covers vnode
// indices [0, w·vnodes) — so reweighting only adds or removes that
// member's highest-index points: keys move to or from the reweighted
// member alone, never between bystanders.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	ids     []int       // distinct member ids, insertion order
	weights []float64   // parallel to ids
}

type ringPoint struct {
	h  uint64
	id int
}

// NewRing builds a ring with the given virtual-node count (<= 0 selects
// DefaultVnodes) over the given replica ids.
func NewRing(vnodes int, ids ...int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{vnodes: vnodes}
	for _, id := range ids {
		r = r.With(id)
	}
	return r
}

// With returns a ring that additionally contains id at weight 1 (r
// itself if id is already a member, at whatever weight it has).
func (r *Ring) With(id int) *Ring {
	for _, e := range r.ids {
		if e == id {
			return r
		}
	}
	return r.WithWeight(id, 1)
}

// WithWeight returns a ring containing id at the given weight, joining
// or reweighting as needed (r itself if id is already at that weight).
// Negative weights clamp to zero; a zero-weight member stays on the
// member list but owns no points, so it is never looked up or returned
// in a candidate sequence.
func (r *Ring) WithWeight(id int, weight float64) *Ring {
	if weight < 0 {
		weight = 0
	}
	for i, e := range r.ids {
		if e == id {
			if r.weights[i] == weight {
				return r
			}
			return r.reweighted(i, weight)
		}
	}
	nr := &Ring{
		vnodes:  r.vnodes,
		ids:     append(append(make([]int, 0, len(r.ids)+1), r.ids...), id),
		weights: append(append(make([]float64, 0, len(r.weights)+1), r.weights...), weight),
		points:  append(append(make([]ringPoint, 0, len(r.points)+r.vnodes), r.points...), vnodePoints(id, r.vnodes, weight)...),
	}
	nr.sortPoints()
	return nr
}

// reweighted rebuilds member slot i's points at the new weight. Vnode
// labels are stable across weights, so the surviving points keep their
// positions: only the added (weight up) or removed (weight down) points
// remap keys, and only to or from this member.
func (r *Ring) reweighted(i int, weight float64) *Ring {
	id := r.ids[i]
	nr := &Ring{
		vnodes:  r.vnodes,
		ids:     append([]int(nil), r.ids...),
		weights: append([]float64(nil), r.weights...),
	}
	nr.weights[i] = weight
	nr.points = make([]ringPoint, 0, len(r.points))
	for _, p := range r.points {
		if p.id != id {
			nr.points = append(nr.points, p)
		}
	}
	nr.points = append(nr.points, vnodePoints(id, r.vnodes, weight)...)
	nr.sortPoints()
	return nr
}

// Without returns a ring with id removed (r itself if absent). Removal
// is minimally disruptive by construction: every surviving point keeps
// its position, so only keys owned by the removed replica remap.
func (r *Ring) Without(id int) *Ring {
	found := false
	for _, e := range r.ids {
		if e == id {
			found = true
			break
		}
	}
	if !found {
		return r
	}
	nr := &Ring{vnodes: r.vnodes}
	for i, e := range r.ids {
		if e != id {
			nr.ids = append(nr.ids, e)
			nr.weights = append(nr.weights, r.weights[i])
		}
	}
	nr.points = make([]ringPoint, 0, len(r.points))
	for _, p := range r.points {
		if p.id != id {
			nr.points = append(nr.points, p)
		}
	}
	return nr
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].id < r.points[j].id
	})
}

// vnodeCount is the point count for one member: weight·vnodes, rounded,
// with any positive weight guaranteed at least one point so a lightly
// weighted member still owns keyspace.
func vnodeCount(vnodes int, weight float64) int {
	n := int(weight*float64(vnodes) + 0.5)
	if n == 0 && weight > 0 {
		n = 1
	}
	return n
}

// vnodePoints hashes id's virtual nodes for the given weight.
func vnodePoints(id, vnodes int, weight float64) []ringPoint {
	pts := make([]ringPoint, vnodeCount(vnodes, weight))
	for v := range pts {
		pts[v] = ringPoint{h: hash64(fmt.Sprintf("replica-%d/vnode-%d", id, v)), id: id}
	}
	return pts
}

// hash64 is FNV-1a with a murmur-style finalizer. Raw FNV-1a has weak
// high-bit avalanche on near-identical strings — vnode labels differ in
// a couple of digits, and without the finalizer the ring points cluster
// badly enough to skew two-replica ownership to ~80/20.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.ids) }

// IDs returns the member ids (copy, insertion order).
func (r *Ring) IDs() []int { return append([]int(nil), r.ids...) }

// Weight reports id's weight (0 if absent).
func (r *Ring) Weight(id int) float64 {
	for i, e := range r.ids {
		if e == id {
			return r.weights[i]
		}
	}
	return 0
}

// Lookup returns the member owning key, or -1 on an empty ring.
func (r *Ring) Lookup(key string) int {
	var buf [1]int
	seq := r.Sequence(buf[:0], key, 1)
	if len(seq) == 0 {
		return -1
	}
	return seq[0]
}

// Sequence appends up to n distinct member ids to dst in ring order
// starting at the key's successor point: the primary first, then the
// failover candidates a router walks when the primary is down, tripped,
// or over its load high-water. A caller that passes a stack buffer with
// room for n ids keeps the lookup off the heap.
func (r *Ring) Sequence(dst []int, key string, n int) []int {
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	base := len(dst)
	for k := 0; k < len(r.points) && len(dst)-base < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !contains(dst[base:], p.id) {
			dst = append(dst, p.id)
		}
	}
	return dst
}

// contains is a linear scan — candidate lists are 2-4 entries, where a
// map would cost more than it saves.
func contains(ids []int, id int) bool {
	for _, e := range ids {
		if e == id {
			return true
		}
	}
	return false
}
