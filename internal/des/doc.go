// Package des implements a deterministic discrete-event simulation
// kernel used to emulate the coupled heterogeneous platforms of
// Figueira & Berman (HPDC'96).
//
// The kernel advances a virtual clock over a heap of cancelable events.
// Simulated activities are written as ordinary imperative Go functions
// running in "processes": iter.Pull coroutines that the kernel resumes
// one at a time, so execution is sequential and fully deterministic.
// Resources such as processor-sharing CPUs and FCFS links are built on
// top of the kernel's event primitives in sibling packages.
//
// Determinism: exactly one of the kernel and its processes runs at any
// instant; control transfers by direct coroutine switch, never through
// the Go scheduler; simultaneous events fire in schedule order (a
// monotonically increasing sequence number breaks time ties).
//
// Lifetime: a kernel that stops with processes still parked (servers,
// contenders that loop forever) holds one coroutine per process until
// Close unwinds them. Every owner pairs New with a deferred Close.
package des
