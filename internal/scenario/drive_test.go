package scenario

import (
	"errors"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"contention/internal/serve"
)

// TestUniformPacerMatchesLegacyTicker pins the shared pacer to the
// pre-refactor open-loop schedule: the legacy code built a ticker with
// interval time.Duration(float64(time.Second)/rate) clamped to 1ns, so
// arrival k (1-based) fires at k·interval. Any drift here changes
// legacy -rate output.
func TestUniformPacerMatchesLegacyTicker(t *testing.T) {
	for _, rate := range []float64{1, 3, 1000, 2000, 333.33, 1e12} {
		legacyInterval := time.Duration(float64(time.Second) / rate)
		if legacyInterval <= 0 {
			legacyInterval = time.Nanosecond
		}
		p := newUniformPacer(rate)
		if p.interval != legacyInterval {
			t.Fatalf("rate %g: interval %v, legacy ticker used %v", rate, p.interval, legacyInterval)
		}
		for k := int64(1); k <= 5; k++ {
			off, ok := p.next()
			if !ok || off != time.Duration(k)*legacyInterval {
				t.Fatalf("rate %g arrival %d: offset %v ok=%v, want %v", rate, k, off, ok, time.Duration(k)*legacyInterval)
			}
		}
	}
}

// TestOpenLoopDrawOrderUnchanged pins the paced loop's corpus draw
// stream: seed 77, one Intn(N) per arrival — the indices the legacy
// -rate loop drew. The draws happen in arrival order; the requests they
// start may finish in any order, so the issued indices are compared as
// a multiset.
func TestOpenLoopDrawOrderUnchanged(t *testing.T) {
	const nBodies, arrivals = 512, 40
	want := rand.New(rand.NewSource(77))
	wantN := map[int]int{}
	for k := 0; k < arrivals; k++ {
		wantN[want.Intn(nBodies)]++
	}
	// 1M req/s for 40µs fires arrivals 1..40; 64 slots never overflow.
	var (
		mu   sync.Mutex
		gotN = map[int]int{}
	)
	s, outs := Drive(Shape{Workers: 16, Rate: 1e6, For: arrivals * time.Microsecond, N: nBodies, Draw: true},
		func(i int) Outcome {
			mu.Lock()
			gotN[i]++
			mu.Unlock()
			return Outcome{}
		})
	if s.OK != arrivals || s.Errors != 0 || outs != nil {
		t.Fatalf("Drive: %d ok, %d errors (first %v), %d outcomes kept; want %d, 0, none",
			s.OK, s.Errors, s.FirstErr, len(outs), arrivals)
	}
	for i, n := range wantN {
		if gotN[i] != n {
			t.Fatalf("corpus index %d issued %d times, legacy stream draws it %d times (issued %v)", i, gotN[i], n, gotN)
		}
	}
}

// TestOverloadMessageUnchanged pins the drop diagnostic string format
// verbatim — dashboards and log greps match on it.
func TestOverloadMessageUnchanged(t *testing.T) {
	if overloadFmt != "open-loop overload: %d requests in flight" {
		t.Fatalf("overloadFmt changed: %q", overloadFmt)
	}
	if openSeed != 77 {
		t.Fatalf("openSeed changed: %d", openSeed)
	}
}

// TestPaceLoopOrderAndDeadline pins paceLoop semantics: arrivals fire
// synchronously in schedule order, the loop stops at schedule
// exhaustion, and an offset past the deadline ends the run without
// firing.
func TestPaceLoopOrderAndDeadline(t *testing.T) {
	offsets := []time.Duration{0, time.Microsecond, 2 * time.Microsecond, time.Hour}
	var seqs []int
	paceLoop(&schedulePacer{offsets: offsets}, time.Second, func(seq int) {
		seqs = append(seqs, seq)
	})
	if len(seqs) != 3 {
		t.Fatalf("fired %d arrivals, want 3 (the time.Hour offset is past deadline)", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("arrival order %v not sequential", seqs)
		}
	}
	// Exhaustion without a deadline hit.
	fired := 0
	paceLoop(&schedulePacer{offsets: make([]time.Duration, 7)}, time.Second, func(int) { fired++ })
	if fired != 7 {
		t.Fatalf("fired %d, want 7 on schedule exhaustion", fired)
	}
}

// TestScheduleCountsRejectionsAsErrors drives a schedule against a
// target that answers every request 503: every request is an error and
// no latency sample is taken, while each status is kept for replay
// verification. (A schedule-paced run used to count a rejection as a
// success and fold its latency into the percentiles.)
func TestScheduleCountsRejectionsAsErrors(t *testing.T) {
	tg, err := Serve(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"closed"}`, http.StatusServiceUnavailable)
	}), func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer tg.Close()
	client := Client(2)
	defer client.CloseIdleConnections()
	offsets := make([]time.Duration, 20)
	for i := range offsets {
		offsets[i] = time.Duration(i) * time.Millisecond
	}
	s, outs := Drive(Shape{Workers: 2, Offsets: offsets, N: len(offsets)}, func(int) Outcome {
		return Post(client, tg.URL(), serve.ContentTypeBinary, "", []byte{0})
	})
	if s.Errors != len(offsets) || s.OK != 0 || len(s.Latencies) != 0 {
		t.Fatalf("%d errors, %d ok, %d latency samples; want %d, 0, 0", s.Errors, s.OK, len(s.Latencies), len(offsets))
	}
	for i, o := range outs {
		if o.Status != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, o.Status)
		}
	}
}

// TestReplayRule is the one replay rule, case by case: status exact;
// value bits and the degraded verdict exact; 1e-3 relative only where
// the fast-path verdict flipped.
func TestReplayRule(t *testing.T) {
	const v = 1.5
	rec := func(status int, value float64, fast, degraded bool) Record {
		return Record{HasResp: true, Status: status, Resp: serve.Response{Value: value, Fast: fast, Degraded: degraded}}
	}
	got := func(status int, value float64, fast, degraded bool) Outcome {
		return Outcome{Status: status, Resp: serve.Response{Value: value, Fast: fast, Degraded: degraded}}
	}
	for _, tc := range []struct {
		name     string
		want     Record
		got      Outcome
		diverges bool
	}{
		{"reproduced", rec(200, v, false, false), got(200, v, false, false), false},
		{"equal rejections", rec(400, 0, false, false), got(400, 0, false, false), false},
		{"no recorded response", Record{}, got(503, 0, false, false), false},
		{"status", rec(200, v, false, false), got(429, 0, false, false), true},
		{"value bit", rec(200, v, false, false), got(200, math.Nextafter(v, 2), false, false), true},
		{"value bit, both fast", rec(200, v, true, false), got(200, math.Nextafter(v, 2), true, false), true},
		{"degraded flip", rec(200, v, false, false), got(200, v, false, true), true},
		{"undecodable 200", rec(200, 0, false, false), Outcome{Status: 200, Err: errors.New("short body")}, true},
		{"fast flip inside 1e-3", rec(200, v, true, false), got(200, v*(1+0.9e-3), false, false), false},
		{"fast flip past 1e-3", rec(200, v, false, false), got(200, v*(1+1.1e-3), true, false), true},
	} {
		reported := 0
		n := VerifyReplay([]Record{tc.want}, []Outcome{tc.got}, func(i int, err error) {
			reported++
			t.Logf("%s: record %d: %v", tc.name, i, err)
		})
		if (n == 1) != tc.diverges || n != reported {
			t.Errorf("%s: %d divergences (%d reported), want diverges=%v", tc.name, n, reported, tc.diverges)
		}
	}
}
