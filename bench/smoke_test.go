package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the tables the
// program reports from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, file []benchmarkMetric, table []metricDef, bounded bool) {
		if len(file) != len(table) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(table))
		}
		seen := map[string]bool{}
		for i, d := range table {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, f, d)
			}
			if bounded != (f.Bound != nil) || (bounded && (*f.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.Name, f.Bound, d.Bound)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s %s (%s): name or unit outside the contract, or used twice", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestSmoke runs every workload, untraced and traced, for half a second
// each and with a short ladder, and checks the plumbing: every metric of
// the tables is there, finite and in its unit, and no operation failed.
func TestSmoke(t *testing.T) {
	results, err := runAll(io.Discard, workloads, smokeOpts(1, t.TempDir()), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(workloads) {
		t.Fatalf("%d results for %d workloads", len(results), len(workloads))
	}
	for _, r := range results {
		defs := r.table()
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s trace %d: %d metrics, the table has %d", r.Workload, r.Trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s trace %d: metric %s = %+v (present %v), want a finite number of %s", r.Workload, r.Trace, d.Name, m, ok, d.Unit)
			}
			if r.Trace == 0 && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, d.Name, m.Value)
			}
		}
		if _, err := json.Marshal(r.verdict); err != nil {
			t.Errorf("%s trace %d: result does not marshal: %v", r.Workload, r.Trace, err)
		}
	}
}

// corpusHash digests every corpus of a seed.
func corpusHash(t *testing.T, seed int64) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	for _, c := range []struct {
		reqs   []wireRequest
		binary bool
	}{{fastBinCorpus(seed), true}, {jsonCorpus(seed), false}} {
		if err := encode(c.reqs, c.binary); err != nil {
			t.Fatal(err)
		}
		for _, r := range c.reqs {
			h.Write(r.body)
			fmt.Fprintf(h, "%x/%g;", math.Float64bits(r.ref), r.tol)
		}
	}
	for _, k := range libCorpus(seed, 4*sweepKeys) {
		fmt.Fprintf(h, "%v", k)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestCorpusFollowsSeed: the same seed gives the same bytes, another
// seed gives others.
func TestCorpusFollowsSeed(t *testing.T) {
	a, b, c := corpusHash(t, 1), corpusHash(t, 1), corpusHash(t, 2)
	if a != b {
		t.Error("two builds of the seed-1 corpora differ")
	}
	if a == c {
		t.Error("the seed-1 and seed-2 corpora are identical")
	}
}

// TestPaperSuiteHashStable: two passes over one environment render the
// same bytes and the same mean model error, within the paper's claim.
func TestPaperSuiteHashStable(t *testing.T) {
	env, err := newSuiteEnv()
	if err != nil {
		t.Fatal(err)
	}
	h1, e1, err := suitePass(env)
	if err != nil {
		t.Fatal(err)
	}
	h2, e2, err := suitePass(env)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || e1 != e2 {
		t.Errorf("passes differ: %x/%v vs %x/%v", h1, e1, h2, e2)
	}
	if e1 <= 0 || e1 > maxModelErrPct {
		t.Errorf("mean model error %v%% outside (0, %d]", e1, maxModelErrPct)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got, want := []float64{q1, q3}, []float64{2.75, 8.25}; !reflect.DeepEqual(got, want) {
		t.Errorf("quartiles = %v, Python gives %v", got, want)
	}
}
