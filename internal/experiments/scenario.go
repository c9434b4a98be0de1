package experiments

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"contention/internal/des"
	"contention/internal/obs"
	"contention/internal/scenario"
	"contention/internal/serve"
	"contention/internal/stats"
)

const (
	scenarioReplaySeed    = 42
	scenarioReplayHorizon = 2 * time.Second
	scenarioReplayBuckets = 10
)

// scenarioReplayPass replays every record of a generated trace on a DES
// kernel: each arrival is an event at its recorded offset on the
// virtual clock, evaluated through the no-batcher serve path
// (serve.Direct) against the shared predictor. It returns the predicted
// value per record plus per-bucket arrival counts by cohort and bucket
// value sums — everything derived from the virtual clock and the
// predictor, so two passes over the same trace must agree bit-for-bit.
func scenarioReplayPass(env *Env, hdr scenario.TraceHeader, recs []scenario.Record) (values []float64, counts map[string][]float64, sums, ns []float64, err error) {
	k := des.New()
	defer k.Close()
	values = make([]float64, len(recs))
	counts = map[string][]float64{}
	sums = make([]float64, scenarioReplayBuckets)
	ns = make([]float64, scenarioReplayBuckets)
	width := scenarioReplayHorizon.Seconds() / scenarioReplayBuckets
	var evalErr error
	for i := range recs {
		i := i
		rec := recs[i]
		k.At(rec.Offset.Seconds(), func() {
			if evalErr != nil {
				return
			}
			req, derr := scenario.DecodeRequestBytes(rec.Req, hdr.Format)
			if derr != nil {
				evalErr = fmt.Errorf("record %d: %w", i, derr)
				return
			}
			resp, derr := serve.Direct(env.Pred, req, false)
			if derr != nil {
				evalErr = fmt.Errorf("record %d: %w", i, derr)
				return
			}
			values[i] = resp.Value
			b := int(k.Now() / width)
			if b >= scenarioReplayBuckets {
				b = scenarioReplayBuckets - 1
			}
			if counts[rec.Cohort] == nil {
				counts[rec.Cohort] = make([]float64, scenarioReplayBuckets)
			}
			counts[rec.Cohort][b]++
			sums[b] += resp.Value
			ns[b]++
		})
	}
	k.Run()
	if evalErr != nil {
		return nil, nil, nil, nil, evalErr
	}
	return values, counts, sums, ns, nil
}

// ScenarioReplay is the deterministic replay exhibit: the mixed builtin
// scenario is realized once into an in-memory contention/trace/v1
// stream, then replayed twice through a DES-clocked driver, and every
// predicted value must agree bit-for-bit between the passes. The series
// show each cohort's arrival rate over virtual time next to the mean
// predicted slowdown — the traffic shape the generators exist to
// produce, and the model's response to it.
func ScenarioReplay(env *Env) (Result, error) {
	sc, err := scenario.Builtin("mixed")
	if err != nil {
		return Result{}, err
	}
	var buf bytes.Buffer
	if _, err := scenario.WriteSchedule(&buf, sc, scenarioReplaySeed, scenarioReplayHorizon, scenario.FormatBinary); err != nil {
		return Result{}, err
	}
	raw := buf.Bytes()
	hdr, recs, err := scenario.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		return Result{}, err
	}

	first, counts, sums, ns, err := scenarioReplayPass(env, hdr, recs)
	if err != nil {
		return Result{}, err
	}
	second, _, _, _, err := scenarioReplayPass(env, hdr, recs)
	if err != nil {
		return Result{}, err
	}
	mismatches := 0
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			mismatches++
		}
	}
	if mismatches > 0 {
		return Result{}, fmt.Errorf("scenarioreplay: %d of %d replayed predictions diverged between passes", mismatches, len(recs))
	}

	width := scenarioReplayHorizon.Seconds() / scenarioReplayBuckets
	x := make([]float64, scenarioReplayBuckets)
	for b := range x {
		x[b] = (float64(b) + 0.5) * width
	}
	cohorts := make([]string, 0, len(counts))
	for name := range counts {
		cohorts = append(cohorts, name)
	}
	sort.Strings(cohorts)
	var series []Series
	for _, name := range cohorts {
		y := make([]float64, scenarioReplayBuckets)
		for b, c := range counts[name] {
			y[b] = c / width
		}
		series = append(series, Series{Name: name + " req/s", X: x, Y: y})
	}
	mean := make([]float64, scenarioReplayBuckets)
	for b := range mean {
		if ns[b] > 0 {
			mean[b] = sums[b] / ns[b]
		}
	}
	series = append(series, Series{Name: "mean slowdown", X: x, Y: mean})

	return Result{
		ID:     "scenarioreplay",
		Title:  "Scenario trace replay on the DES clock (mixed builtin)",
		XLabel: "time (s)",
		YLabel: "arrivals (req/s) / predicted slowdown",
		Series: series,
		Notes: []string{
			fmt.Sprintf("trace: %d records, %d bytes, seed %d, horizon %v, %s wire",
				len(recs), len(raw), scenarioReplaySeed, scenarioReplayHorizon, hdr.Format),
			fmt.Sprintf("replay determinism: %d/%d predictions bit-identical across passes", len(recs), len(recs)),
		},
		ModelErrPct: map[string]float64{"replay": 0},
	}, nil
}

const (
	// sweepWindow is the micro-batch window of the sweep's served targets.
	sweepWindow = 200 * time.Microsecond
	// sweepConc is the closed-loop worker count each pass drives with.
	sweepConc = 8
)

// sweepTarget is one serving configuration a sweep cell drives:
// issue answers one wire body; close tears the target down.
type sweepTarget struct {
	issue func(body []byte) scenario.Outcome
	close func()
}

// wireFormat is the trace wire format a sweep wire sends.
func wireFormat(wire string) string {
	if wire == "json" {
		return scenario.FormatJSON
	}
	return scenario.FormatBinary
}

// directTarget evaluates bodies in-process through serve.Direct — the
// no-batcher baseline. Decode or validation failures count as 400s,
// mirroring the HTTP path's status mapping.
func directTarget(wire string) (*sweepTarget, error) {
	tryFast := wire == "binary+surface"
	pred, err := scenario.SyntheticPredictor(tryFast)
	if err != nil {
		return nil, err
	}
	format := wireFormat(wire)
	return &sweepTarget{
		issue: func(body []byte) scenario.Outcome {
			t0 := time.Now()
			req, err := scenario.DecodeRequestBytes(body, format)
			if err != nil {
				return scenario.Outcome{Status: http.StatusBadRequest, Err: err}
			}
			resp, err := serve.Direct(pred, req, tryFast)
			if err != nil {
				return scenario.Outcome{Status: http.StatusBadRequest, Err: err}
			}
			return scenario.Outcome{Status: http.StatusOK, Resp: resp, Latency: time.Since(t0)}
		},
		close: func() {},
	}, nil
}

// servedTarget posts bodies over loopback HTTP: to the micro-batching
// server in batched mode (surface and fast path on for binary+surface),
// to a 2-replica fleet behind the router in cluster mode.
func servedTarget(wire, mode string) (*sweepTarget, error) {
	var (
		tg  *scenario.Target
		err error
	)
	if mode == "cluster" {
		tg, err = scenario.SelfServeFleet(2, sweepWindow)
	} else {
		tg, err = scenario.SelfServe(sweepWindow, wire == "binary+surface")
	}
	if err != nil {
		return nil, err
	}
	client := scenario.Client(sweepConc)
	url, contentType := tg.URL(), scenario.ContentType(wireFormat(wire))
	return &sweepTarget{
		issue: func(body []byte) scenario.Outcome { return scenario.Post(client, url, contentType, "", body) },
		close: func() { tg.Close(); client.CloseIdleConnections() },
	}, nil
}

// sweepCell drives plays through tg twice — a record pass and a replay
// pass, each in order on sweepConc closed-loop workers — and holds the
// replay to the record under the one replay rule. It returns the record
// pass's summary, its wall time and the replay's divergence count.
func sweepCell(tg *sweepTarget, plays []scenario.Record) (s scenario.Summary, elapsed time.Duration, mismatches int) {
	pass := func() (scenario.Summary, []scenario.Outcome) {
		return scenario.Drive(scenario.Shape{Workers: sweepConc, N: len(plays)}, func(i int) scenario.Outcome {
			return tg.issue(plays[i].Req)
		})
	}
	t0 := time.Now()
	s, rec := pass()
	elapsed = time.Since(t0)
	_, rep := pass()
	return s, elapsed, scenario.VerifyReplay(scenario.Served(plays, rec), rep, nil)
}

// ScenarioSweep runs the scenario matrix: every builtin scenario ×
// {json, binary, binary+surface} wire × {direct, batched, cluster}
// serving mode, less binary+surface × cluster — replicas take no
// surface, so that cell would re-run binary × cluster. Each cell
// realizes a bounded schedule, drives it twice through a fresh target —
// a record pass and a replay pass — verifies the replay reproduced the
// recorded responses, and reports throughput, latency percentiles,
// batched%, and fast% per cell. n bounds the requests per cell. The
// returned report feeds the run manifest; the Result renders the matrix
// as text.
func ScenarioSweep(env *Env, n int) (Result, *obs.ScenarioReport, error) {
	if n < 1 {
		n = 1
	}
	wires := []string{"json", "binary", "binary+surface"}
	modes := []string{"direct", "batched", "cluster"}

	// One realized schedule per scenario, shared across its cells so
	// every wire/mode combination sees identical traffic.
	schedules := map[string]map[string][]scenario.Record{}
	for _, name := range scenario.BuiltinNames() {
		sc, err := scenario.Builtin(name)
		if err != nil {
			return Result{}, nil, err
		}
		items, err := sc.Schedule(7, time.Second)
		if err != nil {
			return Result{}, nil, err
		}
		if len(items) > n {
			items = items[:n]
		}
		byFormat := map[string][]scenario.Record{}
		for _, format := range []string{scenario.FormatJSON, scenario.FormatBinary} {
			for _, it := range items {
				b, err := scenario.EncodeItem(it, format)
				if err != nil {
					return Result{}, nil, err
				}
				byFormat[format] = append(byFormat[format], scenario.Record{Offset: it.Offset, Cohort: it.Cohort, Req: b})
			}
		}
		schedules[name] = byFormat
	}

	report := &obs.ScenarioReport{}
	for _, name := range scenario.BuiltinNames() {
		for _, wire := range wires {
			plays := schedules[name][wireFormat(wire)]
			for _, mode := range modes {
				if mode == "cluster" && wire == "binary+surface" {
					continue
				}
				var (
					tg  *sweepTarget
					err error
				)
				if mode == "direct" {
					tg, err = directTarget(wire)
				} else {
					tg, err = servedTarget(wire, mode)
				}
				if err != nil {
					return Result{}, nil, fmt.Errorf("scenariosweep %s/%s/%s: %w", name, wire, mode, err)
				}
				s, elapsed, mismatches := sweepCell(tg, plays)
				tg.close()

				if s.OK == 0 {
					return Result{}, nil, fmt.Errorf("scenariosweep %s/%s/%s: no successful requests", name, wire, mode)
				}
				p50, _ := stats.Quantile(s.Latencies, 0.5)
				p99, _ := stats.Quantile(s.Latencies, 0.99)
				report.Cells = append(report.Cells, obs.ScenarioCell{
					Scenario: name, Wire: wire, Mode: mode,
					Requests:         len(plays),
					ReqPerSec:        float64(len(plays)) / elapsed.Seconds(),
					P50Ms:            p50,
					P99Ms:            p99,
					BatchedPct:       pct(s.Batched, s.OK),
					FastPct:          pct(s.Fast, s.OK),
					ReplayMismatches: mismatches,
				})
				report.Replayed += len(plays)
				report.Mismatches += mismatches
			}
		}
	}
	if report.Mismatches > 0 {
		return Result{}, nil, fmt.Errorf("scenariosweep: %d replay mismatches across the matrix", report.Mismatches)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "%-12s %-16s %-8s %8s %10s %9s %9s %9s %7s\n",
		"scenario", "wire", "mode", "reqs", "req/s", "p50-ms", "p99-ms", "batch%", "fast%")
	for _, c := range report.Cells {
		fmt.Fprintf(&b, "%-12s %-16s %-8s %8d %10.0f %9.3f %9.3f %9.1f %7.1f\n",
			c.Scenario, c.Wire, c.Mode, c.Requests, c.ReqPerSec, c.P50Ms, c.P99Ms, c.BatchedPct, c.FastPct)
	}
	return Result{
		ID:    "scenariosweep",
		Title: "Scenario sweep matrix: builtin scenarios × wire format × serving mode",
		Text:  b.String(),
		Notes: []string{
			fmt.Sprintf("%d cells, %d requests replayed, %d mismatches", len(report.Cells), report.Replayed, report.Mismatches),
			"throughput and latency cells are wall-clock measurements; replay verification is the deterministic gate",
		},
		ModelErrPct: map[string]float64{"replay": 100 * float64(report.Mismatches) / float64(max(report.Replayed, 1))},
	}, report, nil
}

// pct is the percentage of part in whole, 0 when whole is 0.
func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
