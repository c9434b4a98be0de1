package trace

import (
	"sort"
	"strings"
	"testing"
)

func TestStateAtFollowsTransitions(t *testing.T) {
	var tr Trace
	tr.Record(0, "cm2", "idle")
	tr.Record(2, "cm2", "execute")
	tr.Record(5, "cm2", "idle")
	cases := []struct {
		at   float64
		want string
	}{
		{-1, ""}, {0, "idle"}, {1.9, "idle"}, {2, "execute"}, {4.9, "execute"}, {5, "idle"}, {100, "idle"},
	}
	for _, c := range cases {
		if got := tr.StateAt("cm2", c.at); got != c.want {
			t.Errorf("StateAt(%v) = %q, want %q", c.at, got, c.want)
		}
	}
}

func TestStateAtIgnoresOtherActors(t *testing.T) {
	var tr Trace
	tr.Record(0, "sun", "serial")
	if got := tr.StateAt("cm2", 1); got != "" {
		t.Fatalf("StateAt other actor = %q, want empty", got)
	}
}

func TestEventsSortedStably(t *testing.T) {
	var tr Trace
	tr.Record(3, "a", "x")
	tr.Record(1, "a", "y")
	tr.Record(3, "b", "z")
	ev := tr.Events()
	if ev[0].At != 1 || ev[1].At != 3 || ev[2].At != 3 {
		t.Fatalf("events %v not sorted", ev)
	}
	if ev[1].Actor != "a" || ev[2].Actor != "b" {
		t.Fatalf("stable order violated: %v", ev)
	}
}

func TestSpan(t *testing.T) {
	var tr Trace
	if lo, hi := tr.Span(); lo != 0 || hi != 0 {
		t.Fatalf("empty span = %v/%v", lo, hi)
	}
	tr.Record(2, "a", "x")
	tr.Record(7, "a", "y")
	if lo, hi := tr.Span(); lo != 2 || hi != 7 {
		t.Fatalf("span = %v/%v, want 2/7", lo, hi)
	}
}

func TestTimelineRendersColumns(t *testing.T) {
	var tr Trace
	tr.Record(0, "sun", "serial")
	tr.Record(0, "cm2", "idle")
	tr.Record(1, "sun", "serial")
	tr.Record(1, "cm2", "execute")
	tr.Record(2, "sun", "idle")
	out := tr.Timeline(1, []string{"sun", "cm2"})
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
	var tr Trace
	if out := tr.Timeline(1, []string{"a"}); out != "" {
		t.Fatalf("empty trace rendered %q", out)
	}
	tr.Record(0, "a", "x")
	if out := tr.Timeline(1, nil); out != "" {
		t.Fatalf("no actors rendered %q", out)
	}
}

func TestTimelinePanicsOnBadStep(t *testing.T) {
	var tr Trace
	tr.Record(0, "a", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("zero step did not panic")
		}
	}()
	tr.Timeline(0, []string{"a"})
}

// Events returns a copy of the log sorted by time (stable).
func (t *Trace) Events() []Event {
	out := append([]Event(nil), t.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
