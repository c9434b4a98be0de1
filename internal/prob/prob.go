// Package prob computes the Poisson-binomial distributions behind the
// paper's pcomp_i and pcomm_i terms: given p contending applications,
// application k being "active" (computing, or communicating) with
// probability q_k independently, P(i) is the probability that exactly i
// of them are active at once.
//
// The paper notes the full distribution is computable by dynamic
// programming in O(p²), that adding an application takes O(p), and that
// removal costs O(p²) by regeneration. Calc implements exactly those
// operations (plus an O(p) deconvolution-based removal for comparison,
// exercised by the ablation benchmarks).
package prob

import (
	"errors"
	"fmt"
	"math"
)

// Calc maintains a Poisson-binomial distribution incrementally.
// The zero value is an empty distribution: P(0) = 1.
type Calc struct {
	qs   []float64 // per-application activity probabilities
	dist []float64 // dist[i] = P(exactly i active), len = len(qs)+1
}

// New returns a Calc over the given activity probabilities.
func New(qs ...float64) (*Calc, error) {
	c := &Calc{dist: []float64{1}}
	for _, q := range qs {
		if err := c.Add(q); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MustNew is New but panics on invalid probabilities; for literals.
func MustNew(qs ...float64) *Calc {
	c, err := New(qs...)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Calc) ensure() {
	if c.dist == nil {
		c.dist = []float64{1}
	}
}

// N reports the number of applications in the distribution.
func (c *Calc) N() int { return len(c.qs) }

// Probs returns a copy of the per-application activity probabilities.
func (c *Calc) Probs() []float64 { return append([]float64(nil), c.qs...) }

// Add incorporates one application with activity probability q in O(p).
// The convolution runs in place (top-down over the extended buffer), so
// repeated Adds amortize to zero allocations once capacity is grown.
func (c *Calc) Add(q float64) error {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return fmt.Errorf("prob: probability %v out of [0,1]", q)
	}
	c.ensure()
	n := len(c.dist)
	c.dist = append(c.dist, 0)
	for i := n - 1; i >= 0; i-- {
		c.dist[i+1] += c.dist[i] * q
		c.dist[i] *= 1 - q
	}
	c.qs = append(c.qs, q)
	return nil
}

// Remove deletes the application at index by regenerating the
// distribution from scratch — the paper's O(p²) removal. The rebuild
// runs in the existing buffers (the remaining qs were validated when
// added, so the DP cannot fail), making removal allocation-free.
func (c *Calc) Remove(index int) error {
	if index < 0 || index >= len(c.qs) {
		return fmt.Errorf("prob: remove index %d out of range [0,%d)", index, len(c.qs))
	}
	c.qs = append(c.qs[:index], c.qs[index+1:]...)
	dist, err := AppendDistribution(c.dist, c.qs)
	if err != nil {
		return err
	}
	c.dist = dist
	return nil
}

// RemoveDeconv deletes the application at index in O(p) by
// deconvolving its Bernoulli factor. Numerically safe only when
// q is not extremely close to 1; it validates the result and returns an
// error (leaving the Calc unchanged) when deconvolution is unstable.
func (c *Calc) RemoveDeconv(index int) error {
	if index < 0 || index >= len(c.qs) {
		return fmt.Errorf("prob: remove index %d out of range [0,%d)", index, len(c.qs))
	}
	q := c.qs[index]
	n := len(c.dist) - 1 // current number of apps
	out := make([]float64, n)
	switch {
	case q == 1:
		// All mass had one forced success: shift down.
		for i := 0; i < n; i++ {
			out[i] = c.dist[i+1]
		}
	case q < 0.5:
		// Forward recurrence: dist[i] = out[i-1]q + out[i](1-q).
		out[0] = c.dist[0] / (1 - q)
		for i := 1; i < n; i++ {
			out[i] = (c.dist[i] - out[i-1]*q) / (1 - q)
		}
	default:
		// Backward recurrence, stable for q ≥ 0.5.
		out[n-1] = c.dist[n] / q
		for i := n - 2; i >= 0; i-- {
			out[i] = (c.dist[i+1] - out[i+1]*(1-q)) / q
		}
	}
	sum := 0.0
	for _, v := range out {
		if v < -1e-9 || math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("prob: deconvolution numerically unstable; use Remove")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return errors.New("prob: deconvolution lost normalization; use Remove")
	}
	for i, v := range out {
		if v < 0 {
			out[i] = 0
		}
	}
	c.dist = out
	c.qs = append(c.qs[:index], c.qs[index+1:]...)
	return nil
}

// P returns P(exactly i active). Out-of-range i yields 0.
func (c *Calc) P(i int) float64 {
	c.ensure()
	if i < 0 || i >= len(c.dist) {
		return 0
	}
	return c.dist[i]
}

// PAtLeast returns P(at least i active).
func (c *Calc) PAtLeast(i int) float64 {
	c.ensure()
	if i < 0 {
		i = 0
	}
	s := 0.0
	for j := i; j < len(c.dist); j++ {
		s += c.dist[j]
	}
	return s
}

// Dist returns a copy of the full distribution, index i = P(i active).
func (c *Calc) Dist() []float64 {
	c.ensure()
	return append([]float64(nil), c.dist...)
}

// Mean returns the expected number of active applications (Σ q_k).
func (c *Calc) Mean() float64 {
	s := 0.0
	for _, q := range c.qs {
		s += q
	}
	return s
}

// Distribution is the one-shot O(p²) DP over qs, returning the full
// Poisson-binomial distribution.
func Distribution(qs []float64) ([]float64, error) {
	return AppendDistribution(nil, qs)
}

// AppendDistribution is Distribution into a caller-supplied scratch
// buffer: dst's contents are discarded, its capacity is reused, and the
// resulting distribution (length len(qs)+1) is returned — callers that
// keep the returned slice as their next dst pay nothing after warm-up.
func AppendDistribution(dst []float64, qs []float64) ([]float64, error) {
	dst = append(dst[:0], 1)
	for _, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return nil, fmt.Errorf("prob: probability %v out of [0,1]", q)
		}
		n := len(dst)
		dst = append(dst, 0)
		for i := n - 1; i >= 0; i-- {
			dst[i+1] += dst[i] * q
			dst[i] *= 1 - q
		}
	}
	return dst, nil
}
