package stats

import (
	"math"
	"testing"
)

// TestMedianDoesNotMutateInput is the regression test for the trust
// layer's contract: order statistics must never sort the caller's
// sample buffer in place (the calibration suite reuses its buffers
// across aggregation passes).
func TestMedianDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	want := append([]float64(nil), xs...)
	_ = Median(xs)
	_ = MAD(xs)
	if _, err := Quantile(xs, 0.25); err != nil {
		t.Fatal(err)
	}
	if _, err := TrimmedMean(xs, 0.2); err != nil {
		t.Fatal(err)
	}
	_, _ = RejectOutliersMAD(xs, 3)
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("input mutated at %d: %v, want %v", i, xs, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got, err := Quantile([]float64{1, 2}, 0.5); err != nil || !approx(got, 1.5, 1e-12) {
		t.Fatalf("interpolated Quantile = %v (%v), want 1.5", got, err)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("Quantile(nil) did not error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("Quantile(q=1.5) did not error")
	}
	if _, err := Quantile(xs, math.NaN()); err == nil {
		t.Fatal("Quantile(q=NaN) did not error")
	}
}

func TestTrimmedMean(t *testing.T) {
	// One gross outlier in ten samples: a 10% trim per tail removes it.
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 1000}
	got, err := TrimmedMean(xs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 10, 1e-12) {
		t.Fatalf("TrimmedMean = %v, want 10", got)
	}
	// trim = 0 is the plain mean.
	got, err = TrimmedMean(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, Mean(xs), 1e-12) {
		t.Fatalf("TrimmedMean(0) = %v, want %v", got, Mean(xs))
	}
	if _, err := TrimmedMean(nil, 0.1); err == nil {
		t.Fatal("TrimmedMean(nil) did not error")
	}
	if _, err := TrimmedMean(xs, 0.5); err == nil {
		t.Fatal("TrimmedMean(trim=0.5) did not error")
	}
}

func TestMAD(t *testing.T) {
	if got := MAD([]float64{1, 1, 2, 2, 4, 6, 9}); !approx(got, 1, 1e-12) {
		t.Fatalf("MAD = %v, want 1", got)
	}
	if got := MAD(nil); got != 0 {
		t.Fatalf("MAD(nil) = %v, want 0", got)
	}
	// MAD is immune to a single arbitrarily large outlier.
	if got := MAD([]float64{10, 10.1, 9.9, 10, 1e9}); got > 0.2 {
		t.Fatalf("MAD with outlier = %v, want small", got)
	}
}

func TestRejectOutliersMAD(t *testing.T) {
	xs := []float64{10, 10.1, 9.9, 10.05, 9.95, 50}
	kept, rejected := RejectOutliersMAD(xs, 3.5)
	if rejected != 1 || len(kept) != 5 {
		t.Fatalf("rejected %d kept %d, want 1/5", rejected, len(kept))
	}
	for _, x := range kept {
		if x == 50 {
			t.Fatal("outlier survived rejection")
		}
	}
	// Identical samples: zero MAD keeps everything.
	same := []float64{3, 3, 3, 3}
	kept, rejected = RejectOutliersMAD(same, 3.5)
	if rejected != 0 || len(kept) != 4 {
		t.Fatalf("zero-MAD rejection: rejected %d kept %d, want 0/4", rejected, len(kept))
	}
}
