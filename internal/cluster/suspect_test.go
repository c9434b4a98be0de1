package cluster

import (
	"testing"
	"time"
)

// TestSuspect drives the suspicion rule through a member the way the
// health loop does: before each probe the member is checked against its
// deadline, and a successful probe resets it. Probe interval 100 ms,
// SuspectAfter 4: a remote member silent for more than 400 ms since its
// last success, or since it joined, is suspect.
func TestSuspect(t *testing.T) {
	const interval, after = 100 * time.Millisecond, 4.0
	ms := time.Millisecond
	for _, tc := range []struct {
		name        string
		local       bool
		probes      []time.Duration // successful probes, after the join
		at          time.Duration   // when the deadline is checked
		want        bool
		wantRejoins int
	}{
		{name: "on schedule", probes: []time.Duration{100 * ms, 200 * ms, 300 * ms, 400 * ms, 500 * ms}, at: 600 * ms},
		{name: "just under the deadline", probes: []time.Duration{100 * ms}, at: 499 * ms},
		{name: "just over the deadline", probes: []time.Duration{100 * ms}, at: 501 * ms, want: true},
		{name: "readmitted after a success", probes: []time.Duration{100 * ms, 5 * time.Second}, at: 5010 * ms, wantRejoins: 1},
		{name: "just joined with no probe yet", at: 399 * ms},
		{name: "joined and never answered", at: 401 * ms, want: true},
		{name: "local member", local: true, at: time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			join := time.Unix(1000, 0)
			m := &member{remote: !tc.local, state: stateUp, lastOK: join}
			rejoins := 0
			for _, p := range tc.probes {
				m.markSuspect(join.Add(p), interval, after)
				if m.probeOK(join.Add(p)) {
					rejoins++
				}
			}
			now := join.Add(tc.at)
			m.markSuspect(now, interval, after)
			if got := m.state == stateSuspect; got != tc.want {
				t.Fatalf("suspect = %v at %v (silence %.2f intervals), want %v",
					got, tc.at, silence(m.lastOK, now, interval), tc.want)
			}
			if rejoins != tc.wantRejoins {
				t.Fatalf("%d rejoins, want %d", rejoins, tc.wantRejoins)
			}
		})
	}
}
