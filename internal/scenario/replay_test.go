package scenario

import (
	"bytes"
	"net/http"
	"testing"
	"time"
)

// replayScenario is the differential workload: three cohorts with
// different mixes so the batcher sees skewed, repeating keys.
func replayScenario(t testing.TB, rate float64) *Scenario {
	t.Helper()
	sc := Mix("replay",
		Cohort{Name: "batch", Arrivals: Constant{Rate: rate * 0.4},
			Workload: Workload{Comm: 0.2, J: 0.3, Mixes: 4}},
		Cohort{Name: "interactive", Arrivals: Sinusoid{Mean: rate * 0.4,
			Terms: []Term{{Amp: 0.5, Period: 700 * time.Millisecond}}},
			Workload: Workload{Comm: 0.8, Mixes: 12}},
		Cohort{Name: "crowd", Arrivals: MarkovBurst{Base: rate * 0.05, Burst: rate,
			MeanOn: 150 * time.Millisecond, MeanOff: 450 * time.Millisecond},
			Workload: Workload{Homogeneous: 1, Mixes: 2, MaxP: 3}},
	)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// recordReplay records plays in order against one fresh target (conc
// closed-loop workers), writes the served trace and reads it back, then
// replays the records against a second fresh target. It returns the
// recorded records and the replayed outcomes.
func recordReplay(t *testing.T, hdr TraceHeader, plays []Record, conc int, fresh func() (*Target, error)) ([]Record, []Outcome) {
	t.Helper()
	run := func(plays []Record) []Outcome {
		tg, err := fresh()
		if err != nil {
			t.Fatal(err)
		}
		defer tg.Close()
		client := Client(conc)
		defer client.CloseIdleConnections()
		url, contentType := tg.URL(), ContentType(hdr.Format)
		_, outs := Drive(Shape{Workers: conc, N: len(plays)}, func(i int) Outcome {
			return Post(client, url, contentType, "", plays[i].Req)
		})
		// A rejection is recorded and replayed; no answer at all, or a 200
		// that does not decode, fails the run.
		for i, o := range outs {
			if o.Err != nil && (o.Status == 0 || o.Status == http.StatusOK) {
				t.Fatalf("request %d (status %d): %v", i, o.Status, o.Err)
			}
		}
		return outs
	}
	var trace bytes.Buffer
	if err := WriteServed(&trace, hdr, plays, run(plays)); err != nil {
		t.Fatal(err)
	}
	got, recs, err := ReadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Served || got.Format != hdr.Format {
		t.Fatalf("header %+v lost served/format", got)
	}
	if len(recs) != len(plays) {
		t.Fatalf("trace carried %d records, wrote %d", len(recs), len(plays))
	}
	return recs, run(recs)
}

// TestReplayDifferential10k is the tentpole acceptance gate: record a
// 10k-request seeded run against an in-process server, replay the
// trace against a fresh server, and require every response to
// reproduce under the replay rule — with no surface attached, that is
// every value bit-for-bit and every status code exactly. Five malformed
// bodies are spliced in so the 400 path is part of the differential.
func TestReplayDifferential10k(t *testing.T) {
	const want = 10_000
	n := want
	if testing.Short() {
		n = 2_000
	}
	// ~3.5k req/s over 3 s lands comfortably past 10k; truncate exactly.
	sc := replayScenario(t, 3500)
	items, err := sc.Schedule(20260807, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) < n {
		t.Fatalf("schedule produced %d items, need %d", len(items), n)
	}
	items = items[:n]

	plays := make([]Record, 0, n+5)
	for i, it := range items {
		// Splice malformed bodies at fixed points: the recorded 400s must
		// replay as 400s.
		if i%2000 == 1000 {
			plays = append(plays, Record{Offset: it.Offset, Cohort: "bad", Req: []byte{0xde, 0xad, 0xbe, 0xef}})
		}
		b, err := EncodeItem(it, FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		plays = append(plays, Record{Offset: it.Offset, Cohort: it.Cohort, Req: b})
	}

	recs, got := recordReplay(t, TraceHeader{
		Seed: 20260807, Scenario: sc.Spec(), HorizonMS: 3000, Format: FormatBinary,
	}, plays, 16, func() (*Target, error) { return SelfServe(200*time.Microsecond, false) })

	badSeen := 0
	for _, r := range recs {
		if r.Status != http.StatusOK {
			badSeen++
		}
	}
	if m := VerifyReplay(recs, got, func(i int, err error) {
		t.Errorf("record %d (%s): %v", i, recs[i].Cohort, err)
	}); m > 0 {
		t.Fatalf("%d of %d replayed records diverged", m, len(recs))
	}
	if badSeen == 0 {
		t.Fatal("no malformed records exercised the 400 path")
	}
	t.Logf("replayed %d records (%d bad-request) bit-identically", len(recs), badSeen)
}

// TestReplayThroughCluster is the race-checked variant: the same
// record→replay differential, but the traffic crosses the cluster
// router (2 in-process replicas, consistent-hash affinity, JSON wire).
func TestReplayThroughCluster(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 400
	}
	sc := replayScenario(t, 2000)
	items, err := sc.Schedule(7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) < n {
		t.Fatalf("schedule produced %d items, need %d", len(items), n)
	}
	plays := make([]Record, n)
	for i, it := range items[:n] {
		b, err := EncodeItem(it, FormatJSON)
		if err != nil {
			t.Fatal(err)
		}
		plays[i] = Record{Offset: it.Offset, Cohort: it.Cohort, Req: b}
	}

	recs, got := recordReplay(t, TraceHeader{Seed: 7, Scenario: sc.Spec(), Format: FormatJSON}, plays, 8,
		func() (*Target, error) { return SelfServeFleet(2, 200*time.Microsecond) })
	VerifyReplay(recs, got, func(i int, err error) {
		t.Fatalf("record %d (%s): %v", i, recs[i].Cohort, err)
	})
}
