// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per exhibit; the design choices DESIGN.md §5
// ablates are a test, ablation_test.go). Each benchmark reports the
// model-vs-actual error of its experiment as a custom metric (err%),
// alongside the usual time/op: run with
//
//	go test -bench=. -benchmem
package contention_test

import (
	"flag"
	"sync"
	"testing"

	"contention/internal/core"
	"contention/internal/experiments"
	"contention/internal/runner"
)

// benchSerial forces the experiment benchmarks onto the serial path
// (no worker pool). The default matches cmd/experiments: parallel on,
// with output guaranteed byte-identical to serial.
var benchSerial = flag.Bool("benchserial", false, "run experiment benchmarks without the worker pool")

var benchPool = runner.New(0)

// sharedEnv is calibrated once per test binary: every benchmark draws
// from the same Env.
var (
	sharedEnvOnce sync.Once
	sharedEnv     *experiments.Env
	sharedEnvErr  error
)

func benchEnv(tb testing.TB) *experiments.Env {
	tb.Helper()
	sharedEnvOnce.Do(func() { sharedEnv, sharedEnvErr = experiments.NewEnv() })
	env, err := sharedEnv, sharedEnvErr
	if err != nil {
		tb.Fatalf("calibration failed: %v", err)
	}
	if !*benchSerial {
		env = env.WithPool(benchPool)
	}
	return env
}

func BenchmarkTable1Dedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tables12()
		if err != nil {
			b.Fatal(err)
		}
		if r.Series[0].Y[0] != 16 {
			b.Fatalf("makespan %v, want 16", r.Series[0].Y[0])
		}
	}
}

func BenchmarkTable3NonDedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if r.Series[0].Y[0] != 38 {
			b.Fatalf("makespan %v, want 38", r.Series[0].Y[0])
		}
	}
}

func BenchmarkTable4NonDedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if r.Series[0].Y[0] != 48 {
			b.Fatalf("makespan %v, want 48", r.Series[0].Y[0])
		}
	}
}

// benchFigure runs a figure driver b.N times and reports its model
// error under the given label.
func benchFigure(b *testing.B, run func(*experiments.Env) (experiments.Result, error), errLabel string) {
	env := benchEnv(b)
	b.ResetTimer()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := run(env)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if errLabel != "" {
		b.ReportMetric(last.ModelErrPct[errLabel], "err%")
	}
}

func BenchmarkFigure1(b *testing.B) { benchFigure(b, experiments.Figure1, "p=3") }
func BenchmarkFigure2(b *testing.B) { benchFigure(b, experiments.Figure2, "") }
func BenchmarkFigure3(b *testing.B) { benchFigure(b, experiments.Figure3, "p=3") }
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiments.Figure4, "") }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5, "contended") }
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Figure6, "contended") }
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7, "j=1000") }
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8, "j=500") }

// BenchmarkSlowdownEvaluation measures the run-time cost of one
// slowdown evaluation for a 16-application system — the quantity the
// paper argues must be negligible for on-line scheduling.
func BenchmarkSlowdownEvaluation(b *testing.B) {
	env := benchEnv(b)
	cs := make([]core.Contender, 16)
	for i := range cs {
		cs[i] = core.Contender{CommFraction: 0.4, MsgWords: 500}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CommSlowdown(cs, env.Cal.Tables); err != nil {
			b.Fatal(err)
		}
		if _, err := core.CompSlowdown(cs, env.Cal.Tables); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictComm measures one end-to-end communication
// prediction (slowdown kernel + dedicated model) for a two-contender
// set — the per-call cost a scheduler pays on every placement.
func BenchmarkPredictComm(b *testing.B) {
	env := benchEnv(b)
	pred := env.Pred
	cs := []core.Contender{
		{CommFraction: 0.40, MsgWords: 500},
		{CommFraction: 0.25, MsgWords: 200},
	}
	sets := []core.DataSet{{N: 400, Words: 512}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.PredictComm(core.HostToBack, sets, cs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictCommBatch measures a 32-point sweep predicted through
// the batched API: the slowdown mixture is computed once and reused for
// every point.
func BenchmarkPredictCommBatch(b *testing.B) {
	env := benchEnv(b)
	pred := env.Pred
	cs := []core.Contender{
		{CommFraction: 0.40, MsgWords: 500},
		{CommFraction: 0.25, MsgWords: 200},
	}
	batches := make([][]core.DataSet, 32)
	for i := range batches {
		batches[i] = []core.DataSet{{N: 400, Words: 64 * (i + 1)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.PredictCommBatch(nil, core.HostToBack, batches, cs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuite regenerates the full paper evaluation (tables and
// figures 1–8) through the experiment engine — the headline wall-clock
// number the worker pool exists for. Compare with and without
// -benchserial to see the fan-out win.
func BenchmarkSuite(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.All(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks ---------------------------------------------------

// BenchmarkSyntheticSuite regenerates the paper's generality check over
// random CM2 programs, reporting the suite MAPE.
func BenchmarkSyntheticSuite(b *testing.B) {
	env := benchEnv(b)
	var errPct float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.SyntheticCM2(env, 30)
		if err != nil {
			b.Fatal(err)
		}
		errPct = r.ModelErrPct["suite"]
	}
	b.ReportMetric(errPct, "err%")
}

// BenchmarkExtensionIOCharacteristics reports the error advantage of
// per-contender activity fractions over the naive p+1 on I/O-bound load.
func BenchmarkExtensionIOCharacteristics(b *testing.B) {
	env := benchEnv(b)
	var advantage float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.IOCharacteristics(env)
		if err != nil {
			b.Fatal(err)
		}
		advantage = r.ModelErrPct["naive"] - r.ModelErrPct["extended"]
	}
	b.ReportMetric(advantage, "pp-advantage")
}

// BenchmarkExtensionPhased reports the error advantage of re-evaluating
// the slowdown at job-mix changes over freezing the initial mix.
func BenchmarkExtensionPhased(b *testing.B) {
	env := benchEnv(b)
	var advantage float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.PhasedContention(env)
		if err != nil {
			b.Fatal(err)
		}
		advantage = r.ModelErrPct["static"] - r.ModelErrPct["phased"]
	}
	b.ReportMetric(advantage, "pp-advantage")
}

// BenchmarkExtensionMultiMachine reports the per-link model's error on
// the three-machine platform (split placement).
func BenchmarkExtensionMultiMachine(b *testing.B) {
	env := benchEnv(b)
	var errPct float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.MultiMachine(env)
		if err != nil {
			b.Fatal(err)
		}
		errPct = r.ModelErrPct["split"]
	}
	b.ReportMetric(errPct, "err%")
}

// BenchmarkExtensionOffloadDecision reports the model's error on the
// offload path of the Equation (1) end-to-end experiment.
func BenchmarkExtensionOffloadDecision(b *testing.B) {
	env := benchEnv(b)
	var errPct float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.OffloadDecision(env)
		if err != nil {
			b.Fatal(err)
		}
		errPct = r.ModelErrPct["offload"]
	}
	b.ReportMetric(errPct, "err%")
}

// BenchmarkFaultTolerance reports how much error the injected-fault
// sweep adds to the fault-blind calibrated model at the heaviest
// intensity, relative to the clean run.
func BenchmarkFaultTolerance(b *testing.B) {
	env := benchEnv(b)
	var clean, heavy float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.FaultTolerance(env)
		if err != nil {
			b.Fatal(err)
		}
		clean = r.ModelErrPct["clean"]
		heavy = r.ModelErrPct["heaviest-fault"]
	}
	b.ReportMetric(clean, "clean-err%")
	b.ReportMetric(heavy, "faulty-err%")
}
