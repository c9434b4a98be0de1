package cluster

import (
	"time"

	"contention/internal/serve"
)

// Test-side reach into a running cluster: the chaos gates and the frame
// tests drive and inspect in-process replicas through these.

// Replica returns member id's current incarnation (nil while down).
func (c *Cluster) Replica(id int) Replica {
	m := c.memberByID(id)
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rep
}

// Chaos hooks implemented by InProcReplica; the chaos harness
// type-asserts against these.
type (
	// Staller freezes request handling for a duration.
	Staller interface{ StallFor(d time.Duration) }
	// Degrader marks the calibration untrusted and clears it again.
	Degrader interface {
		Degrade(reason string)
		Recover()
	}
)

// StallFor freezes the replica host for d — the chaos stand-in for a GC
// pause, paging storm, or scheduler hiccup: it stops reading its
// sockets, so HTTP requests and frames alike wait.
func (r *InProcReplica) StallFor(d time.Duration) { r.host.stallFor(d) }

// stallFor extends the host's stall to at least d from now.
func (l *hostListener) stallFor(d time.Duration) {
	until := time.Now().Add(d).UnixNano()
	for {
		cur := l.stallUntil.Load()
		if cur >= until || l.stallUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Degrade marks the replica's calibration stale: answers flip to the
// conservative p+1 fallback (flagged degraded) until Recover.
func (r *InProcReplica) Degrade(reason string) { r.pred.MarkStale(reason) }

// Recover clears a prior Degrade.
func (r *InProcReplica) Recover() { r.pred.ClearStale() }

// Server exposes the underlying serve.Server.
func (r *InProcReplica) Server() *serve.Server { return r.srv }
