package sched

import (
	"fmt"
	"math"
)

// Load bridges the contention model and the allocation problem: the
// slowdown factors currently in force on one machine and on the links
// touching it. An application-level scheduler (the AppLeS line of work
// this paper feeds, its reference [4]) computes these from the
// predictor and the contender set a resource manager knows (§2).
type Load struct {
	// Comp multiplies every execution cost on the machine.
	Comp float64
	// Comm multiplies every transfer cost into or out of the machine.
	Comm float64
}

// Validate checks the factors.
func (l Load) Validate() error {
	if l.Comp < 1 || math.IsNaN(l.Comp) {
		return fmt.Errorf("sched: computation slowdown %v must be ≥ 1", l.Comp)
	}
	if l.Comm < 1 || math.IsNaN(l.Comm) {
		return fmt.Errorf("sched: communication slowdown %v must be ≥ 1", l.Comm)
	}
	return nil
}

// AdjustForLoad returns a copy of the problem with per-machine slowdown
// factors applied: execution costs scale by the machine's Comp factor;
// each transfer scales by the larger Comm factor of its two endpoint
// machines (the shared medium is paced by the more contended side).
// Machines absent from the map are dedicated (factor 1).
func (p Problem) AdjustForLoad(loads map[Machine]Load) (Problem, error) {
	for m, l := range loads {
		if err := l.Validate(); err != nil {
			return Problem{}, fmt.Errorf("machine %q: %w", m, err)
		}
	}
	out := p.clone()
	for t := range out.Exec {
		for m := range out.Exec[t] {
			if l, ok := loads[m]; ok {
				out.Exec[t][m] *= l.Comp
			}
		}
	}
	commFactor := func(a, b Machine) float64 {
		f := 1.0
		if l, ok := loads[a]; ok && l.Comm > f {
			f = l.Comm
		}
		if l, ok := loads[b]; ok && l.Comm > f {
			f = l.Comm
		}
		return f
	}
	for i := range out.Edges {
		for r, c := range out.Edges[i].Cost {
			out.Edges[i].Cost[r] = c * commFactor(r.From, r.To)
		}
	}
	return out, nil
}
