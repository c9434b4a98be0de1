package cluster

import (
	"context"
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

// Degrader marks a replica's calibration untrusted and clears it
// again; the chaos harness type-asserts against it.
type Degrader interface {
	Degrade(reason string)
	Recover()
}

// stallableFactory is InProcessFactory with each replica behind a
// chaosProxy of its own, through which the chaos gate stalls it: the
// stand-in for a GC pause, paging storm or scheduler hiccup on the
// replica's host. A stalled proxy holds the bytes of every connection
// in both directions, so HTTP requests and frames alike wait.
func stallableFactory(cfg InProcConfig) Factory {
	inProc := InProcessFactory(cfg)
	return func(id, gen int) (Replica, error) {
		rep, err := inProc(id, gen)
		if err != nil {
			return nil, err
		}
		p, err := newChaosProxy(rep.Addr())
		if err != nil {
			rep.Kill()
			return nil, err
		}
		return &stallableReplica{InProcReplica: rep.(*InProcReplica), proxy: p}, nil
	}
}

// stallableReplica is an in-process replica the cluster reaches only
// through its proxy.
type stallableReplica struct {
	*InProcReplica
	proxy *chaosProxy
}

// Addr implements Replica: the proxy's address.
func (r *stallableReplica) Addr() string { return r.proxy.Addr() }

// StallFor freezes the replica's network edge for d.
func (r *stallableReplica) StallFor(d time.Duration) { r.proxy.Stall(d) }

// Close implements Replica: the replica drains, then its proxy closes.
func (r *stallableReplica) Close(ctx context.Context) error {
	err := r.InProcReplica.Close(ctx)
	_ = r.proxy.Close()
	return err
}

// Kill implements Replica: the replica and its proxy go at once.
func (r *stallableReplica) Kill() {
	r.InProcReplica.Kill()
	_ = r.proxy.Close()
}

// Degrade marks the replica's calibration stale: answers flip to the
// conservative p+1 fallback (flagged degraded) until Recover.
func (r *InProcReplica) Degrade(reason string) { r.pred.MarkStale(reason) }

// Recover clears a prior Degrade.
func (r *InProcReplica) Recover() { r.pred.ClearStale() }

// Server exposes the underlying serve.Server.
func (r *InProcReplica) Server() *serve.Server { return r.srv }
