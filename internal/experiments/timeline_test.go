package experiments

import (
	"sort"
	"strings"
	"testing"
)

func TestStateAtFollowsTransitions(t *testing.T) {
	var tr timeline
	tr.record(0, "cm2", "idle")
	tr.record(2, "cm2", "execute")
	tr.record(5, "cm2", "idle")
	cases := []struct {
		at   float64
		want string
	}{
		{-1, ""}, {0, "idle"}, {1.9, "idle"}, {2, "execute"}, {4.9, "execute"}, {5, "idle"}, {100, "idle"},
	}
	for _, c := range cases {
		if got := tr.stateAt("cm2", c.at); got != c.want {
			t.Errorf("stateAt(%v) = %q, want %q", c.at, got, c.want)
		}
	}
}

func TestStateAtIgnoresOtherActors(t *testing.T) {
	var tr timeline
	tr.record(0, "sun", "serial")
	if got := tr.stateAt("cm2", 1); got != "" {
		t.Fatalf("StateAt other actor = %q, want empty", got)
	}
}

func TestEventsSortedStably(t *testing.T) {
	var tr timeline
	tr.record(3, "a", "x")
	tr.record(1, "a", "y")
	tr.record(3, "b", "z")
	ev := tr.sorted()
	if ev[0].at != 1 || ev[1].at != 3 || ev[2].at != 3 {
		t.Fatalf("events %v not sorted", ev)
	}
	if ev[1].actor != "a" || ev[2].actor != "b" {
		t.Fatalf("stable order violated: %v", ev)
	}
}

func TestSpan(t *testing.T) {
	var tr timeline
	if lo, hi := tr.span(); lo != 0 || hi != 0 {
		t.Fatalf("empty span = %v/%v", lo, hi)
	}
	tr.record(2, "a", "x")
	tr.record(7, "a", "y")
	if lo, hi := tr.span(); lo != 2 || hi != 7 {
		t.Fatalf("span = %v/%v, want 2/7", lo, hi)
	}
}

func TestTimelineRendersColumns(t *testing.T) {
	var tr timeline
	tr.record(0, "sun", "serial")
	tr.record(0, "cm2", "idle")
	tr.record(1, "sun", "serial")
	tr.record(1, "cm2", "execute")
	tr.record(2, "sun", "idle")
	out := tr.render(1, []string{"sun", "cm2"})
	if !strings.Contains(out, "sun") || !strings.Contains(out, "cm2") {
		t.Fatalf("missing headers:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 time steps
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "execute") {
		t.Fatalf("row for t=1 missing execute state:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	var tr timeline
	if out := tr.render(1, []string{"a"}); out != "" {
		t.Fatalf("empty trace rendered %q", out)
	}
	tr.record(0, "a", "x")
	if out := tr.render(1, nil); out != "" {
		t.Fatalf("no actors rendered %q", out)
	}
}

func TestTimelinePanicsOnBadStep(t *testing.T) {
	var tr timeline
	tr.record(0, "a", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("zero step did not panic")
		}
	}()
	tr.render(0, []string{"a"})
}

// sorted returns a copy of the log sorted by time (stable).
func (t *timeline) sorted() []timelineEvent {
	out := append([]timelineEvent(nil), t.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// TestTimelineOutOfOrderEvents checks that a timeline rendered from
// events recorded out of chronological order is identical to one
// rendered from the same events recorded in order.
func TestTimelineOutOfOrderEvents(t *testing.T) {
	var ordered, shuffled timeline
	ordered.record(0, "cpu", "run")
	ordered.record(1, "cpu", "idle")
	ordered.record(2, "cpu", "run")
	ordered.record(3, "cpu", "idle")

	shuffled.record(2, "cpu", "run")
	shuffled.record(0, "cpu", "run")
	shuffled.record(3, "cpu", "idle")
	shuffled.record(1, "cpu", "idle")

	want := ordered.render(1, []string{"cpu"})
	got := shuffled.render(1, []string{"cpu"})
	if got != want {
		t.Fatalf("out-of-order rendering differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if !strings.Contains(want, "run") || !strings.Contains(want, "idle") {
		t.Fatalf("timeline missing states:\n%s", want)
	}
}

// TestDuplicateTimestampLastWins checks the documented semantics for
// two events of one actor at the same instant: the later-recorded event
// wins (stable sort keeps record order, StateAt takes the last at the
// best time).
func TestDuplicateTimestampLastWins(t *testing.T) {
	var tr timeline
	tr.record(1, "wire", "send")
	tr.record(1, "wire", "ack")
	if got := tr.stateAt("wire", 1); got != "ack" {
		t.Fatalf("StateAt duplicate timestamp = %q, want %q (last recorded)", got, "ack")
	}
	// The same holds when the duplicates were recorded around other
	// events out of order.
	var tr2 timeline
	tr2.record(2, "wire", "idle")
	tr2.record(1, "wire", "send")
	tr2.record(1, "wire", "ack")
	if got := tr2.stateAt("wire", 1.5); got != "ack" {
		t.Fatalf("StateAt after out-of-order duplicates = %q, want %q", got, "ack")
	}
	line1 := timelineRow(t, tr.render(1, []string{"wire"}), 0)
	if !strings.Contains(line1, "ack") {
		t.Fatalf("timeline row at duplicate timestamp %q, want the last event's state", line1)
	}
}

// TestTimelineSingleEvent checks the degenerate one-event log: the span
// collapses to a point and the timeline still renders a header plus
// exactly one row carrying the state.
func TestTimelineSingleEvent(t *testing.T) {
	var tr timeline
	tr.record(2.5, "host", "compute")
	out := tr.render(0.5, []string{"host"})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("single-event timeline has %d lines, want header + 1 row:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "host") {
		t.Fatalf("header missing actor: %q", lines[0])
	}
	if !strings.Contains(lines[1], "2.500") || !strings.Contains(lines[1], "compute") {
		t.Fatalf("row %q, want time 2.500 in state compute", lines[1])
	}
	lo, hi := tr.span()
	if lo != 2.5 || hi != 2.5 {
		t.Fatalf("span = [%v, %v], want the single event time", lo, hi)
	}
}

// timelineRow returns the n-th data row (0-based, after the header).
func timelineRow(t *testing.T, timeline string, n int) string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(timeline, "\n"), "\n")
	if n+1 >= len(lines) {
		t.Fatalf("timeline has no row %d:\n%s", n, timeline)
	}
	return lines[n+1]
}
