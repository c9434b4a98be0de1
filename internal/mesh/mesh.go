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

	// hops recycles the records of finished asynchronous hops (see
	// NXHopAsync and NXSendAsync).
	hops []*hop

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
// the (possibly queued) fabric hop. A free fabric is taken at once; when
// it is busy the service node gets round to the message one zero-delay
// event later and joins the fabric's FCFS queue then, among the
// processes parked in NXSend — the zero-delay call stands where the wake
// of a forwarding process handed the message would, and the request is
// made when that process's NXSend would have run. No process carries the
// hop either way, and a steady stream of hops allocates nothing.
func (m *Machine) NXHopAsync(words int, done func()) {
	h := m.newHop(words, done)
	if m.fabric.TryAcquire() {
		h.occupy()
		return
	}
	h.step = hopRequest
	m.k.Call(0, h)
}

// NXSendAsync is NXSend for a sender that is not a process (the pre-wire
// hop of link.Node.Stream): the fabric is requested at once, queued for
// FCFS if busy, occupied for the message's fabric time, and then done
// fires. It schedules, event for event, what a process calling NXSend at
// the same instant would — a timed call where Delay queued a wake — and
// differs from NXHopAsync only in when it asks
// (TestAsyncHopsQueueAmongProcesses tells the two apart).
func (m *Machine) NXSendAsync(words int, done func()) {
	m.newHop(words, done).request()
}

// hop is one asynchronous fabric transfer: a recycled timed-call record
// that walks through NXSend's steps, its next one named by step.
type hop struct {
	m    *Machine
	t    float64
	done func()
	step hopStep
}

type hopStep uint8

const (
	hopRequest   hopStep = iota // Fire asks for the fabric
	hopGranted                  // Fire means a Release passed it the fabric
	hopOccupying                // Fire means its fabric time has elapsed
)

func (m *Machine) newHop(words int, done func()) *hop {
	t := m.NXTime(words)
	var h *hop
	if n := len(m.hops); n > 0 {
		h, m.hops = m.hops[n-1], m.hops[:n-1]
	} else {
		h = &hop{m: m}
	}
	h.t, h.done = t, done
	return h
}

func (h *hop) request() {
	h.step = hopGranted
	if h.m.fabric.AcquireAsync(h) {
		h.occupy()
	}
}

func (h *hop) occupy() {
	h.step = hopOccupying
	h.m.k.Call(h.t, h)
}

// Fire implements des.Action.
func (h *hop) Fire() {
	switch h.step {
	case hopRequest:
		h.request()
	case hopGranted:
		h.occupy()
	case hopOccupying:
		m, done := h.m, h.done
		m.fabricBusy += h.t
		m.fabricSends++
		m.fabric.Release()
		h.done = nil
		m.hops = append(m.hops, h)
		done()
	}
}

// FabricBusy reports cumulative fabric occupancy.
func (m *Machine) FabricBusy() float64 { return m.fabricBusy }

// FabricSends reports the number of fabric transfers completed.
func (m *Machine) FabricSends() int { return m.fabricSends }
