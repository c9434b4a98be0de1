package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEmptyDistribution(t *testing.T) {
	var c Calc
	if got := c.P(0); got != 1 {
		t.Fatalf("P(0) of empty = %v, want 1", got)
	}
	if got := c.P(1); got != 0 {
		t.Fatalf("P(1) of empty = %v, want 0", got)
	}
	if c.N() != 0 {
		t.Fatalf("N = %d, want 0", c.N())
	}
}

func TestPaperExample(t *testing.T) {
	// The paper's §3.2.1 example: p = 2, one app communicates 20% /
	// computes 80%, the other communicates 30% / computes 70%.
	comm := MustNew(0.2, 0.3)
	comp := MustNew(0.8, 0.7)

	if got, want := comm.P(1), 0.2*0.7+0.3*0.8; !approx(got, want, 1e-12) {
		t.Errorf("pcomm_1 = %v, want %v", got, want)
	}
	if got, want := comm.P(2), 0.2*0.3; !approx(got, want, 1e-12) {
		t.Errorf("pcomm_2 = %v, want %v", got, want)
	}
	if got, want := comp.P(1), 0.2*0.7+0.3*0.8; !approx(got, want, 1e-12) {
		t.Errorf("pcomp_1 = %v, want %v", got, want)
	}
	if got, want := comp.P(2), 0.7*0.8; !approx(got, want, 1e-12) {
		t.Errorf("pcomp_2 = %v, want %v", got, want)
	}
}

func TestSingleApp(t *testing.T) {
	c := MustNew(0.25)
	if !approx(c.P(0), 0.75, 1e-12) || !approx(c.P(1), 0.25, 1e-12) {
		t.Fatalf("dist = %v", c.Dist())
	}
}

func TestBinomialSpecialCase(t *testing.T) {
	// Equal probabilities reduce to a binomial distribution.
	const n, q = 6, 0.3
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = q
	}
	c := MustNew(qs...)
	choose := func(n, k int) float64 {
		r := 1.0
		for i := 0; i < k; i++ {
			r *= float64(n-i) / float64(i+1)
		}
		return r
	}
	for k := 0; k <= n; k++ {
		want := choose(n, k) * math.Pow(q, float64(k)) * math.Pow(1-q, float64(n-k))
		if !approx(c.P(k), want, 1e-12) {
			t.Fatalf("P(%d) = %v, want %v", k, c.P(k), want)
		}
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	var c Calc
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if err := c.Add(q); err == nil {
			t.Errorf("Add(%v) did not error", q)
		}
	}
	if c.N() != 0 {
		t.Fatalf("invalid adds changed state: N = %d", c.N())
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(0.5, 2.0); err == nil {
		t.Fatal("New with invalid probability did not error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid probability did not panic")
		}
	}()
	MustNew(-1)
}

func TestRemoveMatchesRebuild(t *testing.T) {
	c := MustNew(0.1, 0.5, 0.9, 0.3)
	if err := c.Remove(2); err != nil {
		t.Fatal(err)
	}
	want := MustNew(0.1, 0.5, 0.3)
	for i := 0; i <= 3; i++ {
		if !approx(c.P(i), want.P(i), 1e-12) {
			t.Fatalf("after Remove, P(%d) = %v, want %v", i, c.P(i), want.P(i))
		}
	}
	if err := c.Remove(10); err == nil {
		t.Fatal("Remove out of range did not error")
	}
}

func TestDistributionFunction(t *testing.T) {
	d, err := AppendDistribution([]float64{9, 9, 9, 9}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.5, 0.25}
	if len(d) != len(want) {
		t.Fatalf("AppendDistribution = %v, want %v", d, want)
	}
	for i := range want {
		if !approx(d[i], want[i], 1e-12) {
			t.Fatalf("AppendDistribution = %v, want %v", d, want)
		}
	}
	if _, err := AppendDistribution(nil, []float64{-1}); err == nil {
		t.Fatal("AppendDistribution with invalid prob did not error")
	}
}

// Property: the distribution always sums to 1 and is non-negative.
func TestDistributionNormalizedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		qs := make([]float64, n)
		for i := range qs {
			qs[i] = r.Float64()
		}
		c := MustNew(qs...)
		sum := 0.0
		for _, v := range c.Dist() {
			if v < 0 {
				return false
			}
			sum += v
		}
		return approx(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: expected value of the distribution equals Σq (linearity).
func TestDistributionMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		qs := make([]float64, n)
		sumQ := 0.0
		for i := range qs {
			qs[i] = r.Float64()
			sumQ += qs[i]
		}
		c := MustNew(qs...)
		ev := 0.0
		for i, v := range c.Dist() {
			ev += float64(i) * v
		}
		return approx(ev, sumQ, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add then Remove(last) round-trips the distribution.
func TestAddRemoveRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		qs := make([]float64, n)
		for i := range qs {
			qs[i] = r.Float64()
		}
		c := MustNew(qs...)
		before := c.Dist()
		if err := c.Add(r.Float64()); err != nil {
			return false
		}
		if err := c.Remove(n); err != nil {
			return false
		}
		after := c.Dist()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if !approx(before[i], after[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddIncremental(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var c Calc
		for j := 0; j < 16; j++ {
			_ = c.Add(0.4)
		}
	}
}

func BenchmarkRemoveRebuild(b *testing.B) {
	qs := make([]float64, 16)
	for i := range qs {
		qs[i] = 0.4
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := MustNew(qs...)
		_ = c.Remove(8)
	}
}

// Cross-check: the DP distribution agrees with Monte-Carlo sampling of
// independent Bernoulli draws.
func TestDistributionMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	qs := []float64{0.15, 0.5, 0.8, 0.33}
	c := MustNew(qs...)
	const samples = 200000
	counts := make([]int, len(qs)+1)
	for s := 0; s < samples; s++ {
		k := 0
		for _, q := range qs {
			if rng.Float64() < q {
				k++
			}
		}
		counts[k]++
	}
	for i := 0; i <= len(qs); i++ {
		emp := float64(counts[i]) / samples
		if math.Abs(emp-c.P(i)) > 0.005 {
			t.Fatalf("P(%d): DP %v vs Monte-Carlo %v", i, c.P(i), emp)
		}
	}
}
