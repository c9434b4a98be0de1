// Package trace records actor/state timelines from simulation runs and
// renders them as fixed-step text charts — the form of the paper's
// Figure 2, which interleaves the Sun's serial instructions with the
// CM2's execute/idle states.
package trace

import (
	"fmt"
	"strings"
)

// Event marks an actor entering a state at a virtual time; the state
// persists until the actor's next event.
type Event struct {
	At    float64
	Actor string
	State string
}

// Trace is an append-only event log.
type Trace struct {
	events []Event
}

// Record appends an event. Events may be recorded out of order; they
// are sorted stably at rendering time.
func (t *Trace) Record(at float64, actor, state string) {
	t.events = append(t.events, Event{At: at, Actor: actor, State: state})
}

// Len reports the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// StateAt returns the actor's state at the given time ("" before its
// first event).
func (t *Trace) StateAt(actor string, at float64) string {
	state := ""
	best := -1.0
	for _, e := range t.events {
		if e.Actor != actor || e.At > at {
			continue
		}
		if e.At >= best {
			best = e.At
			state = e.State
		}
	}
	return state
}

// Span returns the [min, max] event time range; zero values if empty.
func (t *Trace) Span() (float64, float64) {
	if len(t.events) == 0 {
		return 0, 0
	}
	lo, hi := t.events[0].At, t.events[0].At
	for _, e := range t.events {
		if e.At < lo {
			lo = e.At
		}
		if e.At > hi {
			hi = e.At
		}
	}
	return lo, hi
}

// Timeline renders a fixed-step table with one column per actor (in the
// order given), one row per step of virtual time — the layout of the
// paper's Figure 2.
func (t *Trace) Timeline(step float64, actors []string) string {
	if step <= 0 {
		panic(fmt.Sprintf("trace: step %v must be positive", step))
	}
	if len(actors) == 0 || t.Len() == 0 {
		return ""
	}
	lo, hi := t.Span()

	width := make([]int, len(actors))
	for i, a := range actors {
		width[i] = len(a)
	}
	type row struct {
		at     float64
		states []string
	}
	var rows []row
	for at := lo; at <= hi+step/2; at += step {
		r := row{at: at, states: make([]string, len(actors))}
		for i, a := range actors {
			s := t.StateAt(a, at+step/4) // sample just inside the step
			r.states[i] = s
			if len(s) > width[i] {
				width[i] = len(s)
			}
		}
		rows = append(rows, r)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "t")
	for i, a := range actors {
		fmt.Fprintf(&b, "  %-*s", width[i], a)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.3f", r.at)
		for i, s := range r.states {
			fmt.Fprintf(&b, "  %-*s", width[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
