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
	fabric *des.Semaphore

	// hops recycles the records of finished asynchronous hops (see
	// NXHopAsync and NXSendAsync).
	hops []*hop

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
	return m, nil
}

// ErrInsufficientNodes is returned when an allocation cannot be satisfied.
var ErrInsufficientNodes = errors.New("mesh: not enough free nodes")

// Partition is a space-shared allocation of nodes to one application.
// Non-contiguous allocation is permitted, as on the SDSC Paragon
// (Wan et al., the paper's reference [18]).
type Partition struct {
	m        *Machine
	nodes    []int
	released bool
}

// Allocate reserves n nodes for the application named owner (a label
// for the call site; the partition does not keep it). Allocation is
// first-fit over free node ids (contiguous when possible, non-contiguous
// otherwise); it fails immediately rather than queuing.
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
	return &Partition{m: m, nodes: ids}, nil
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
	p.m.free = append(p.m.free, p.nodes...)
	sort.Ints(p.m.free)
}

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
	proc.Delay(workPerNode / p.m.cfg.NodeSpeed)
}

// ComputeTotal splits totalWork evenly across the partition's nodes and
// runs it as one balanced step.
func (p *Partition) ComputeTotal(proc *des.Proc, totalWork float64) {
	p.Compute(proc, totalWork/float64(len(p.nodes)))
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
