package prob

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForceDist enumerates all 2^p subsets of the success
// probabilities — the definitional Poisson-binomial distribution the
// O(p²) dynamic program must reproduce.
func bruteForceDist(qs []float64) []float64 {
	p := len(qs)
	dist := make([]float64, p+1)
	for mask := 0; mask < 1<<p; mask++ {
		prob, k := 1.0, 0
		for i := 0; i < p; i++ {
			if mask&(1<<i) != 0 {
				prob *= qs[i]
				k++
			} else {
				prob *= 1 - qs[i]
			}
		}
		dist[k] += prob
	}
	return dist
}

// randomQs draws p probabilities, mixing interior values with the 0/1
// edge cases that stress the DP's boundary handling.
func randomQs(rng *rand.Rand, p int) []float64 {
	qs := make([]float64, p)
	for i := range qs {
		switch rng.Intn(10) {
		case 0:
			qs[i] = 0
		case 1:
			qs[i] = 1
		default:
			qs[i] = rng.Float64()
		}
	}
	return qs
}

// TestPropertyDistributionSumsToOne: for random probability vectors up
// to p = 64, the computed distribution is a distribution — every mass
// non-negative and the total within 1e-9 of 1.
func TestPropertyDistributionSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		p := rng.Intn(65)
		qs := randomQs(rng, p)
		c, err := New(qs...)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		dist := c.Dist()
		if len(dist) != p+1 {
			t.Fatalf("trial %d: |dist| = %d, want %d", trial, len(dist), p+1)
		}
		sum := 0.0
		for k, m := range dist {
			if m < 0 || m > 1 {
				t.Fatalf("trial %d: P(%d) = %v outside [0, 1] (qs %v)", trial, k, m, qs)
			}
			sum += m
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: distribution sums to %v, |err| %.3g > 1e-9 (p = %d)",
				trial, sum, math.Abs(sum-1), p)
		}
	}
}

// TestPropertyDPMatchesBruteForce: the O(p²) dynamic program agrees
// with exhaustive 2^p subset enumeration for every p ≤ 12.
func TestPropertyDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for p := 0; p <= 12; p++ {
		for trial := 0; trial < 50; trial++ {
			qs := randomQs(rng, p)
			c, err := New(qs...)
			if err != nil {
				t.Fatalf("p=%d trial %d: New: %v", p, trial, err)
			}
			got := c.Dist()
			want := bruteForceDist(qs)
			for k := 0; k <= p; k++ {
				// 2^p products of ≤1 factors: brute force itself carries
				// rounding, so compare to a tolerance scaled for p = 12.
				if math.Abs(got[k]-want[k]) > 1e-12 {
					t.Fatalf("p=%d trial %d: P(%d) DP %v brute %v (Δ %.3g)\nqs %v",
						p, trial, k, got[k], want[k], math.Abs(got[k]-want[k]), qs)
				}
			}
		}
	}
}

// TestPropertyIncrementalMatchesBatch: building the same multiset via
// repeated Add matches constructing it in one shot.
func TestPropertyIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(12)
		qs := randomQs(rng, p)
		batch := MustNew(qs...)
		inc := MustNew()
		for _, q := range qs {
			if err := inc.Add(q); err != nil {
				t.Fatalf("trial %d: Add(%v): %v", trial, q, err)
			}
		}
		bd, id := batch.Dist(), inc.Dist()
		for k := range bd {
			if math.Abs(bd[k]-id[k]) > 1e-12 {
				t.Fatalf("trial %d: P(%d) batch %v incremental %v", trial, k, bd[k], id[k])
			}
		}
	}
}
