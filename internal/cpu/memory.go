package cpu

import (
	"fmt"
	"math"
)

// Memory support — the paper's first listed extension ("we are
// currently extending our model to include memory constraints"; its
// base model assumes every working set fits in memory). A host may be
// configured with a memory size; applications reserve working-set pages
// while resident. When reservations exceed memory, every resident job's
// effective speed degrades by a paging factor — a deliberately simple
// linear thrashing law that the model in package core mirrors.

// MemoryConfig describes host memory for the paging extension.
type MemoryConfig struct {
	// Pages is the physical memory size in pages.
	Pages int
	// Thrash scales the slowdown per fraction of oversubscription:
	// factor = 1 + Thrash × max(0, resident−Pages)/Pages.
	Thrash float64
}

// Validate checks the configuration.
func (m MemoryConfig) Validate() error {
	if m.Pages <= 0 {
		return fmt.Errorf("cpu: memory pages %d must be positive", m.Pages)
	}
	if m.Thrash < 0 || math.IsNaN(m.Thrash) {
		return fmt.Errorf("cpu: invalid thrash factor %v", m.Thrash)
	}
	return nil
}

// Factor returns the paging slowdown for a total residency.
func (m MemoryConfig) Factor(residentPages int) float64 {
	if m.Pages <= 0 || residentPages <= m.Pages {
		return 1
	}
	over := float64(residentPages-m.Pages) / float64(m.Pages)
	return 1 + m.Thrash*over
}

// ConfigureMemory enables the paging extension on the host. Calling it
// with jobs resident re-times them under the new law.
func (h *Host) ConfigureMemory(cfg MemoryConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	h.advance()
	h.mem = cfg
	h.hasMem = true
	h.reschedule()
	return nil
}

// PagingFactor reports the current slowdown from memory pressure.
func (h *Host) PagingFactor() float64 {
	if !h.hasMem {
		return 1
	}
	return h.mem.Factor(h.resident)
}

// Residency is a working-set reservation held while an application is
// resident on the host.
type Residency struct {
	h        *Host
	pages    int
	released bool
}

// Reserve registers pages of working set. Oversubscription is allowed —
// that is the condition being modeled — and immediately slows every
// resident job.
func (h *Host) Reserve(pages int) (*Residency, error) {
	if pages < 0 {
		return nil, fmt.Errorf("cpu: negative working set %d", pages)
	}
	h.advance()
	h.resident += pages
	h.reschedule()
	return &Residency{h: h, pages: pages}, nil
}

// Release returns the pages. Idempotent.
func (r *Residency) Release() {
	if r.released {
		return
	}
	r.released = true
	r.h.advance()
	r.h.resident -= r.pages
	r.h.reschedule()
}
