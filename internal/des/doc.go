// Package des implements a deterministic discrete-event simulation
// kernel used to emulate the coupled heterogeneous platforms of
// Figueira & Berman (HPDC'96).
//
// The kernel advances a virtual clock over a heap of cancelable events.
// Simulated activities are written as ordinary imperative Go functions
// running in "processes": iter.Pull coroutines that run one at a time,
// so execution is sequential and fully deterministic. Resources such as
// processor-sharing CPUs and FCFS links are built on top of the
// kernel's event primitives in sibling packages.
//
// Determinism: exactly one simulation context — Run, an event callback
// or a process — executes at any instant, and events fire in (time,
// sequence) order: a monotonically increasing sequence number breaks
// time ties, so simultaneous events fire in schedule order. There is
// one event loop and whoever is idle runs it: Run on its caller's
// goroutine, and each process from inside its own Park, where the next
// event is often the parker's own wake (no switch), a callback (run in
// place) or another process's wake (one direct coroutine switch, never
// through the Go scheduler). Who happens to be dispatching decides only
// which stack an event runs on, never which event is next. A wait whose
// own wake is provably that next event — nothing queued at or before it,
// nobody asked to stop — does not enter the loop at all: it consumes the
// wake's sequence number and moves the clock in place (Proc.RunAhead,
// behind Delay and cpu.Host.Compute), which no later event can tell from
// having queued and parked.
//
// Not everything that acts over simulated time needs a process: an
// Action scheduled with Call is a callback without a closure, and one
// queued on a Semaphore with AcquireAsync waits its turn among the
// parked processes and is called, one zero-delay event after the Release
// that serves it, where a process's wake would stand. Resources whose
// actors have nothing to be charged for (link.Node's streams, the mesh's
// service node) are state machines of such calls: whoever has a CPU to
// charge is a process, whoever has none is an Action.
//
// Failure: a panic in a callback or a process body is held by whichever
// loop caught it and re-raised by Run on its caller's goroutine once
// every dispatching process has parked again; the kernel stays usable.
//
// Lifetime: a kernel that stops with processes still parked (servers,
// contenders that loop forever) holds one coroutine per process until
// Close unwinds them. Every owner pairs New with a deferred Close.
package des
