package prob

import (
	"math"
	"testing"
)

// FuzzPoissonBinomial asserts the reference Poisson-binomial DP never
// panics, keeps every probability in [0,1], and keeps the distribution
// normalized — through adds and removals.
func FuzzPoissonBinomial(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 128, 255, 64, 32})
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32 {
			data = data[:32]
		}
		c, err := New()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			q := float64(b) / 255
			if err := c.Add(q); err != nil {
				t.Fatalf("Add(%v) rejected an in-range probability: %v", q, err)
			}
		}
		checkDist := func(c *Calc) {
			sum := 0.0
			for i, p := range c.Dist() {
				if p < -1e-12 || p > 1+1e-12 || math.IsNaN(p) {
					t.Fatalf("P(%d) = %v out of [0,1]", i, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("distribution sums to %v, want 1", sum)
			}
		}
		checkDist(c)
		for c.N() > 0 {
			idx := c.N() / 2
			if err := c.Remove(idx); err != nil {
				t.Fatalf("Remove(%d): %v", idx, err)
			}
			checkDist(c)
		}
	})
}
