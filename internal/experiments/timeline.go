package experiments

import (
	"fmt"
	"strings"
)

// timeline is an append-only log of actors entering states at virtual
// times, rendered as a fixed-step text chart — the form of the paper's
// Figure 2, which interleaves the Sun's serial instructions with the
// CM2's execute/idle states. A state persists until the actor's next
// event.
type timeline struct {
	events []timelineEvent
}

type timelineEvent struct {
	at           float64
	actor, state string
}

// record appends an event. Events may be recorded out of order.
func (t *timeline) record(at float64, actor, state string) {
	t.events = append(t.events, timelineEvent{at: at, actor: actor, state: state})
}

// stateAt returns the actor's state at the given time ("" before its
// first event); of two events at one instant the later recorded wins.
func (t *timeline) stateAt(actor string, at float64) string {
	state := ""
	best := -1.0
	for _, e := range t.events {
		if e.actor != actor || e.at > at {
			continue
		}
		if e.at >= best {
			best = e.at
			state = e.state
		}
	}
	return state
}

// span returns the [min, max] event time range; zero values if empty.
func (t *timeline) span() (float64, float64) {
	if len(t.events) == 0 {
		return 0, 0
	}
	lo, hi := t.events[0].at, t.events[0].at
	for _, e := range t.events {
		lo, hi = min(lo, e.at), max(hi, e.at)
	}
	return lo, hi
}

// render draws a fixed-step table with one column per actor (in the
// order given), one row per step of virtual time — the layout of the
// paper's Figure 2.
func (t *timeline) render(step float64, actors []string) string {
	if step <= 0 {
		panic(fmt.Sprintf("experiments: timeline step %v must be positive", step))
	}
	if len(actors) == 0 || len(t.events) == 0 {
		return ""
	}
	lo, hi := t.span()

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
			s := t.stateAt(a, at+step/4) // sample just inside the step
			r.states[i] = s
			width[i] = max(width[i], len(s))
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
