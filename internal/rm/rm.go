// Package rm is the resource-management layer the paper assumes exists
// around the model: "we assume we know the set of all applications
// executing on the system … this information may be provided by the
// users or obtained from the resource management system" (§2). The
// manager admits applications to the coupled platform (queueing MPP
// partition requests as the SDSC batch scheduler of the paper's
// reference [18] did, with optional backfill over the non-contiguous
// allocator), tracks each application's workload descriptor and working
// set, and keeps the running contender set (core.System) whose slowdowns
// an on-line scheduler queries.
package rm

import (
	"errors"
	"fmt"

	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/cpu"
	"contention/internal/des"
	"contention/internal/mesh"
)

// AppDescriptor registers one application with the manager.
type AppDescriptor struct {
	// Name identifies the application (unique among running apps).
	Name string
	// Contender is the workload characterization the model consumes.
	Contender core.Contender
	// WorkingSetPages reserves front-end memory (0 = negligible).
	WorkingSetPages int
	// Nodes requests an MPP partition of that size (0 = host-only).
	Nodes int
}

// Validate checks the descriptor.
func (d AppDescriptor) Validate() error {
	if d.Name == "" {
		return errors.New("rm: empty application name")
	}
	if err := d.Contender.Validate(); err != nil {
		return err
	}
	if d.WorkingSetPages < 0 {
		return fmt.Errorf("rm: negative working set %d", d.WorkingSetPages)
	}
	if d.Nodes < 0 {
		return fmt.Errorf("rm: negative node request %d", d.Nodes)
	}
	return nil
}

// Config describes the managed platform pieces.
type Config struct {
	// Tables price the running contender set's slowdowns.
	Tables core.DelayTables
	// MPP, when non-nil, is the space-shared back end partitions are
	// allocated from.
	MPP *mesh.Machine
	// Host, when non-nil (and configured with memory), tracks working
	// sets.
	Host *cpu.Host
	// Backfill admits queued requests out of order when they fit; off,
	// the queue is strict FCFS.
	Backfill bool
	// MaxQueue bounds the admission queue: a partition request arriving
	// with MaxQueue requests already parked is rejected with ErrQueueFull
	// instead of parking forever. 0 = unbounded (the seed behavior).
	MaxQueue int
	// SubmitTimeout bounds the virtual time a Submit may spend parked in
	// the admission queue; on expiry the request is withdrawn and Submit
	// returns ErrSubmitTimeout. 0 = wait forever.
	SubmitTimeout float64
	// Trust, when non-nil, is the calibration trust tracker whose state
	// Health() surfaces to schedulers: a scheduler consulting slowdowns
	// built from a stale or degraded calibration should know.
	Trust *caltrust.Tracker
}

// ErrQueueFull is returned when the bounded admission queue is at
// capacity — explicit rejection instead of unbounded parking.
var ErrQueueFull = errors.New("rm: admission queue full")

// ErrSubmitTimeout is returned when a queued partition request is not
// granted within Config.SubmitTimeout of virtual time.
var ErrSubmitTimeout = errors.New("rm: submit timed out in admission queue")

// Manager is the resource manager.
type Manager struct {
	k   *des.Kernel
	cfg Config
	sys *core.System

	running map[string]*Running
	queue   []*pending

	admitted    int
	rejected    int
	totalWait   float64
	maxQueueLen int
}

type pending struct {
	desc     AppDescriptor
	proc     *des.Proc
	enqueued float64
	granted  *mesh.Partition
	err      error
	timer    *des.Event // submit-timeout event, canceled on grant
}

// Running is an admitted application.
type Running struct {
	m         *Manager
	desc      AppDescriptor
	partition *mesh.Partition
	residency *cpu.Residency
	index     int // position in the manager's contender state
	admitted  float64
	released  bool
}

// New builds a manager.
func New(k *des.Kernel, cfg Config) (*Manager, error) {
	sys, err := core.NewSystem(cfg.Tables)
	if err != nil {
		return nil, err
	}
	return &Manager{k: k, cfg: cfg, sys: sys, running: map[string]*Running{}}, nil
}

// Submit admits the application, blocking p in the batch queue while an
// MPP partition request cannot be satisfied. Host-only applications are
// admitted immediately.
func (m *Manager) Submit(p *des.Proc, desc AppDescriptor) (*Running, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if _, dup := m.running[desc.Name]; dup {
		return nil, fmt.Errorf("rm: application %q already running", desc.Name)
	}
	var part *mesh.Partition
	if desc.Nodes > 0 {
		if m.cfg.MPP == nil {
			return nil, fmt.Errorf("rm: %q requests %d nodes but no MPP is managed", desc.Name, desc.Nodes)
		}
		if desc.Nodes > m.cfg.MPP.Config().Nodes {
			m.rejected++
			return nil, fmt.Errorf("rm: %q requests %d nodes, machine has %d", desc.Name, desc.Nodes, m.cfg.MPP.Config().Nodes)
		}
		var err error
		part, err = m.tryAllocate(desc)
		if err != nil {
			return nil, err
		}
		if part == nil {
			// Queue and park until a release grants the request, the
			// bounded queue rejects it, or the submit timeout expires.
			if m.cfg.MaxQueue > 0 && len(m.queue) >= m.cfg.MaxQueue {
				m.rejected++
				return nil, fmt.Errorf("rm: %q: %w (depth %d)", desc.Name, ErrQueueFull, len(m.queue))
			}
			pend := &pending{desc: desc, proc: p, enqueued: p.Now()}
			if m.cfg.SubmitTimeout > 0 {
				pend.timer = m.k.After(m.cfg.SubmitTimeout, func() { m.expire(pend) })
			}
			m.queue = append(m.queue, pend)
			if len(m.queue) > m.maxQueueLen {
				m.maxQueueLen = len(m.queue)
			}
			p.Park()
			if pend.timer != nil {
				m.k.Cancel(pend.timer)
			}
			if pend.err != nil {
				return nil, pend.err
			}
			part = pend.granted
			m.totalWait += p.Now() - pend.enqueued
		}
	}
	return m.admit(p, desc, part)
}

// tryAllocate attempts an immediate allocation; a nil partition with a
// nil error means "must queue". Strict FCFS refuses to jump a non-empty
// queue even when space exists.
func (m *Manager) tryAllocate(desc AppDescriptor) (*mesh.Partition, error) {
	if !m.cfg.Backfill && len(m.queue) > 0 {
		return nil, nil
	}
	part, err := m.cfg.MPP.Allocate(desc.Name, desc.Nodes)
	if err != nil {
		if errors.Is(err, mesh.ErrInsufficientNodes) {
			return nil, nil
		}
		return nil, err
	}
	return part, nil
}

func (m *Manager) admit(p *des.Proc, desc AppDescriptor, part *mesh.Partition) (*Running, error) {
	var res *cpu.Residency
	if m.cfg.Host != nil && desc.WorkingSetPages > 0 {
		var err error
		res, err = m.cfg.Host.Reserve(desc.WorkingSetPages)
		if err != nil {
			if part != nil {
				part.Release()
			}
			return nil, err
		}
	}
	if err := m.sys.Add(desc.Contender); err != nil {
		if part != nil {
			part.Release()
		}
		if res != nil {
			res.Release()
		}
		return nil, err
	}
	r := &Running{
		m:         m,
		desc:      desc,
		partition: part,
		residency: res,
		index:     m.sys.Len() - 1,
		admitted:  p.Now(),
	}
	m.running[desc.Name] = r
	m.admitted++
	return r, nil
}

// Release returns the application's resources and wakes queued
// requests that now fit. Idempotent.
func (r *Running) Release() error {
	if r.released {
		return nil
	}
	r.released = true
	m := r.m
	delete(m.running, r.desc.Name)
	// Remove this application's contender entry; later entries shift.
	if err := m.sys.Remove(r.index); err != nil {
		return err
	}
	for _, other := range m.running {
		if other.index > r.index {
			other.index--
		}
	}
	if r.residency != nil {
		r.residency.Release()
	}
	if r.partition != nil {
		r.partition.Release()
		m.drainQueue()
	}
	return nil
}

// expire withdraws a still-queued request whose submit timeout fired.
// A request already granted or failed (and merely not yet resumed) is
// left alone.
func (m *Manager) expire(pend *pending) {
	for i, q := range m.queue {
		if q == pend {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			pend.err = fmt.Errorf("rm: %q: %w after %.4gs", pend.desc.Name, ErrSubmitTimeout, m.cfg.SubmitTimeout)
			m.rejected++
			pend.proc.Resume()
			return
		}
	}
}

// drainQueue grants queued requests in order; with backfill enabled,
// any request that fits is granted, otherwise only a prefix.
func (m *Manager) drainQueue() {
	keep := m.queue[:0]
	blockedHead := false
	for _, pend := range m.queue {
		grant := !blockedHead || m.cfg.Backfill
		if grant {
			part, err := m.cfg.MPP.Allocate(pend.desc.Name, pend.desc.Nodes)
			switch {
			case err == nil:
				pend.granted = part
				pend.proc.Resume()
				continue
			case errors.Is(err, mesh.ErrInsufficientNodes):
				blockedHead = true
			default:
				pend.err = err
				pend.proc.Resume()
				continue
			}
		}
		keep = append(keep, pend)
	}
	m.queue = keep
}

// Descriptor returns the registration.
func (r *Running) Descriptor() AppDescriptor { return r.desc }

// Partition returns the MPP partition (nil for host-only apps).
func (r *Running) Partition() *mesh.Partition { return r.partition }

// AdmittedAt reports the admission time.
func (r *Running) AdmittedAt() float64 { return r.admitted }

// Contenders returns the workload set as seen by the named application
// (its own entry excluded) — exactly what the slowdown formulas take.
func (m *Manager) Contenders(exclude string) []core.Contender {
	out := make([]core.Contender, 0, len(m.running))
	for name, r := range m.running {
		if name == exclude {
			continue
		}
		out = append(out, r.desc.Contender)
	}
	return out
}

// WorkingSets returns the working sets of every running application
// except the named one (for the memory extension).
func (m *Manager) WorkingSets(exclude string) []int {
	out := make([]int, 0, len(m.running))
	for name, r := range m.running {
		if name == exclude {
			continue
		}
		out = append(out, r.desc.WorkingSetPages)
	}
	return out
}

// Running reports the number of admitted applications.
func (m *Manager) Running() int { return len(m.running) }

// Queued reports the number of parked partition requests.
func (m *Manager) Queued() int { return len(m.queue) }

// Admitted reports the total number of admissions.
func (m *Manager) Admitted() int { return m.admitted }

// Rejected reports the total number of explicit rejections (oversized
// requests, full queue, submit timeouts).
func (m *Manager) Rejected() int { return m.rejected }

// MaxQueueLen reports the peak queue length.
func (m *Manager) MaxQueueLen() int { return m.maxQueueLen }

// TotalWait reports the cumulative queue wait time.
func (m *Manager) TotalWait() float64 { return m.totalWait }

// Health reports the calibration trust state backing the manager's
// slowdown answers, with a human-readable reason when not fresh. A
// manager configured without a trust tracker reports Fresh — the seed
// behavior, where calibrations were trusted unconditionally.
func (m *Manager) Health() (caltrust.TrustState, string) {
	if m.cfg.Trust == nil {
		return caltrust.Fresh, ""
	}
	return m.cfg.Trust.State(), m.cfg.Trust.Reason()
}

// CommSlowdownAll evaluates the communication slowdown over the full
// running set (what a newly arriving application would experience).
func (m *Manager) CommSlowdownAll() float64 { return m.sys.CommSlowdown() }

// CompSlowdownAll evaluates the computation slowdown over the full set.
func (m *Manager) CompSlowdownAll() (float64, error) { return m.sys.CompSlowdown() }
