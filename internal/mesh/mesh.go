// Package mesh models an Intel-Paragon-style space-shared MIMD MPP:
// a pool of compute nodes allocated to applications in partitions, an
// internal NX-style message fabric, and a service node that bridges the
// external TCP link to the fabric (the paper's 2-HOPS communication
// mode). The paper treats intra-machine effects (inter-partition mesh
// traffic, gang scheduling) as folded into T_p; the fabric here is a
// shared FCFS resource so that such traffic can be generated and
// measured, but the contention model itself only sees the external link.
package mesh

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"contention/internal/des"
)

// Config describes the machine.
type Config struct {
	Name string
	// Nodes is the number of compute nodes (excluding the service node).
	Nodes int
	// NodeSpeed is per-node compute speed in work units per second.
	NodeSpeed float64
	// NXAlpha is the per-message startup of the internal fabric (s).
	NXAlpha float64
	// NXBeta is the internal fabric bandwidth (words/s).
	NXBeta float64
}

func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("mesh %q: node count %d must be positive", c.Name, c.Nodes)
	}
	if c.NodeSpeed <= 0 || math.IsNaN(c.NodeSpeed) {
		return fmt.Errorf("mesh %q: node speed %v must be positive", c.Name, c.NodeSpeed)
	}
	if c.NXAlpha < 0 || c.NXBeta <= 0 {
		return fmt.Errorf("mesh %q: invalid NX parameters α=%v β=%v", c.Name, c.NXAlpha, c.NXBeta)
	}
	return nil
}

// Machine is the MPP.
type Machine struct {
	k      *des.Kernel
	cfg    Config
	free   []int // free node ids, kept sorted
	shares []int // per-node resident gang count (time-shared allocation)
	fabric *des.Semaphore

	// Recycled state of the service node's asynchronous hops (see
	// NXHopAsync): timed-call records of finished free-fabric hops, and
	// forwarding processes parked between queued ones.
	hops     []*hop
	idleFwds []*forwarder

	allocated   int
	peakInUse   int
	inUse       int
	fabricBusy  float64
	fabricSends int
}

// New builds a machine from cfg.
func New(k *des.Kernel, cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Machine{k: k, cfg: cfg, fabric: des.NewSemaphore(k, 1)}
	m.free = make([]int, cfg.Nodes)
	for i := range m.free {
		m.free[i] = i
	}
	m.shares = make([]int, cfg.Nodes)
	return m, nil
}

// MustNew is New but panics on config errors.
func MustNew(k *des.Kernel, cfg Config) *Machine {
	m, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// FreeNodes reports the number of currently unallocated nodes.
func (m *Machine) FreeNodes() int { return len(m.free) }

// InUse reports the number of currently allocated nodes.
func (m *Machine) InUse() int { return m.inUse }

// PeakInUse reports the maximum simultaneous allocation seen.
func (m *Machine) PeakInUse() int { return m.peakInUse }

// ErrInsufficientNodes is returned when an allocation cannot be satisfied.
var ErrInsufficientNodes = errors.New("mesh: not enough free nodes")

// Partition is a space-shared allocation of nodes to one application.
// Non-contiguous allocation is permitted, as on the SDSC Paragon
// (Wan et al., the paper's reference [18]).
type Partition struct {
	m        *Machine
	owner    string
	nodes    []int
	shared   bool
	released bool

	busyTime float64
}

// Allocate reserves n nodes for the named application. Allocation is
// first-fit over free node ids (contiguous when possible, non-contiguous
// otherwise); it fails immediately rather than queuing — batch queuing
// belongs to the resource manager above this layer.
func (m *Machine) Allocate(owner string, n int) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mesh: partition size %d must be positive", n)
	}
	if n > len(m.free) {
		return nil, fmt.Errorf("%w: want %d, have %d", ErrInsufficientNodes, n, len(m.free))
	}
	// Prefer a contiguous run of ids if one exists.
	ids := m.contiguousRun(n)
	if ids == nil {
		ids = append([]int(nil), m.free[:n]...)
	}
	m.removeFree(ids)
	for _, id := range ids {
		m.shares[id]++
	}
	m.inUse += len(ids)
	m.allocated++
	if m.inUse > m.peakInUse {
		m.peakInUse = m.inUse
	}
	return &Partition{m: m, owner: owner, nodes: ids}, nil
}

// AllocateShared reserves n time-shared nodes for a gang-scheduled
// application (Feitelson's survey is the paper's reference [7]): nodes
// already hosting fewer than maxShare gangs are eligible, least-loaded
// first. Computation on the partition slows by the gang rotation —
// see Partition.Compute. The contention model folds this into T_p.
func (m *Machine) AllocateShared(owner string, n, maxShare int) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mesh: partition size %d must be positive", n)
	}
	if maxShare < 1 {
		return nil, fmt.Errorf("mesh: max share %d must be ≥ 1", maxShare)
	}
	// Candidate nodes: share < maxShare, least-loaded first, stable by id.
	type cand struct{ id, share int }
	var cands []cand
	for id, sh := range m.shares {
		if sh < maxShare {
			cands = append(cands, cand{id, sh})
		}
	}
	if len(cands) < n {
		return nil, fmt.Errorf("%w: want %d time-shared, have %d", ErrInsufficientNodes, n, len(cands))
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].share != cands[j].share {
			return cands[i].share < cands[j].share
		}
		return cands[i].id < cands[j].id
	})
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = cands[i].id
	}
	sort.Ints(ids)
	for _, id := range ids {
		if m.shares[id] == 0 {
			m.inUse++
		}
		m.shares[id]++
	}
	m.removeFree(ids)
	m.allocated++
	if m.inUse > m.peakInUse {
		m.peakInUse = m.inUse
	}
	return &Partition{m: m, owner: owner, nodes: ids, shared: true}, nil
}

func (m *Machine) contiguousRun(n int) []int {
	runStart := 0
	for i := 1; i <= len(m.free); i++ {
		if i < len(m.free) && m.free[i] == m.free[i-1]+1 {
			continue
		}
		if i-runStart >= n {
			return append([]int(nil), m.free[runStart:runStart+n]...)
		}
		runStart = i
	}
	return nil
}

func (m *Machine) removeFree(ids []int) {
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	keep := m.free[:0]
	for _, id := range m.free {
		if !drop[id] {
			keep = append(keep, id)
		}
	}
	m.free = keep
}

// Release returns the partition's nodes to the free pool. Idempotent.
func (p *Partition) Release() {
	if p.released {
		return
	}
	p.released = true
	for _, id := range p.nodes {
		p.m.shares[id]--
		if p.m.shares[id] == 0 {
			p.m.inUse--
			p.m.free = append(p.m.free, id)
		}
	}
	sort.Ints(p.m.free)
}

// Owner reports the owning application name.
func (p *Partition) Owner() string { return p.owner }

// Size reports the number of nodes in the partition.
func (p *Partition) Size() int { return len(p.nodes) }

// Nodes returns a copy of the allocated node ids.
func (p *Partition) Nodes() []int { return append([]int(nil), p.nodes...) }

// BusyTime reports cumulative per-partition compute occupancy.
func (p *Partition) BusyTime() float64 { return p.busyTime }

// Compute runs workPerNode units on every node in parallel (a perfectly
// balanced data-parallel step), blocking proc for its duration. Space
// sharing means no contention with other partitions.
func (p *Partition) Compute(proc *des.Proc, workPerNode float64) {
	if p.released {
		panic("mesh: Compute on released partition")
	}
	if workPerNode < 0 {
		panic(fmt.Sprintf("mesh: negative work %v", workPerNode))
	}
	d := workPerNode / p.m.cfg.NodeSpeed * p.GangFactor()
	p.busyTime += d
	proc.Delay(d)
}

// GangFactor is the time-sharing slowdown of the partition: the maximum
// number of gangs resident on any of its nodes (gang scheduling rotates
// whole partitions, so the slowest node's rotation paces the gang).
// Space-shared partitions always report 1.
func (p *Partition) GangFactor() float64 {
	max := 1
	for _, id := range p.nodes {
		if s := p.m.shares[id]; s > max {
			max = s
		}
	}
	return float64(max)
}

// Shared reports whether the partition was allocated time-shared.
func (p *Partition) Shared() bool { return p.shared }

// ComputeTotal splits totalWork evenly across the partition's nodes and
// runs it as one balanced step.
func (p *Partition) ComputeTotal(proc *des.Proc, totalWork float64) {
	p.Compute(proc, totalWork/float64(len(p.nodes)))
}

// ComputeImbalanced runs a step whose slowest node has workPerNode ×
// (1+imbalance) work — a crude model of load imbalance.
func (p *Partition) ComputeImbalanced(proc *des.Proc, workPerNode, imbalance float64) {
	if imbalance < 0 {
		panic(fmt.Sprintf("mesh: negative imbalance %v", imbalance))
	}
	p.Compute(proc, workPerNode*(1+imbalance))
}

// NXTime returns the dedicated fabric time for one message.
func (m *Machine) NXTime(words int) float64 {
	if words < 0 {
		panic(fmt.Sprintf("mesh: negative message size %d", words))
	}
	return m.cfg.NXAlpha + float64(words)/m.cfg.NXBeta
}

// NXSend occupies the internal fabric for one node-to-node message,
// blocking proc. The fabric is a shared FCFS resource, so heavy
// inter-partition traffic delays other senders (Liu et al.; Tron &
// Plateau — the paper's references [12] and [17]).
func (m *Machine) NXSend(proc *des.Proc, words int) {
	t := m.NXTime(words)
	m.fabric.Acquire(proc)
	proc.Delay(t)
	m.fabricBusy += t
	m.fabricSends++
	m.fabric.Release()
}

// NXHopAsync models the service node forwarding an externally received
// message into the fabric without blocking the caller: done fires after
// the (possibly queued) fabric hop. A steady stream of hops allocates
// nothing.
func (m *Machine) NXHopAsync(words int, done func()) {
	t := m.NXTime(words)
	if m.fabric.TryAcquire() {
		var h *hop
		if n := len(m.hops); n > 0 {
			h, m.hops = m.hops[n-1], m.hops[:n-1]
		} else {
			h = &hop{m: m}
		}
		h.t, h.done = t, done
		m.k.Call(t, h)
		return
	}
	// Fabric busy: a lightweight forwarding process queues FCFS behind
	// the current senders. An idle one is woken exactly where a new one
	// would be spawned (Spawn is a zero-delay wake too).
	if n := len(m.idleFwds); n > 0 {
		f := m.idleFwds[n-1]
		m.idleFwds = m.idleFwds[:n-1]
		f.words, f.done = words, done
		f.p.Resume()
		return
	}
	f := &forwarder{m: m, words: words, done: done}
	f.p = m.k.Spawn("svc-fwd", f.run)
}

// hop is the completion of one free-fabric NXHopAsync.
type hop struct {
	m    *Machine
	t    float64
	done func()
}

// Fire implements des.Action: the hop's fabric time has elapsed.
func (h *hop) Fire() {
	m, done := h.m, h.done
	m.fabricBusy += h.t
	m.fabricSends++
	m.fabric.Release()
	h.done = nil
	m.hops = append(m.hops, h)
	done()
}

// forwarder is a service-node process that carries queued hops, one per
// wake, and parks on the machine's idle list in between.
type forwarder struct {
	m     *Machine
	p     *des.Proc
	words int
	done  func()
}

func (f *forwarder) run(p *des.Proc) {
	for {
		f.m.NXSend(p, f.words)
		done := f.done
		f.done = nil
		done()
		f.m.idleFwds = append(f.m.idleFwds, f)
		p.Park()
	}
}

// FabricBusy reports cumulative fabric occupancy.
func (m *Machine) FabricBusy() float64 { return m.fabricBusy }

// FabricSends reports the number of fabric transfers completed.
func (m *Machine) FabricSends() int { return m.fabricSends }
