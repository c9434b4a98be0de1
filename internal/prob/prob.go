// Package prob is the test and ladder reference for the Poisson-binomial
// distributions behind the paper's pcomp_i and pcomm_i terms: given p
// contending applications, application k being "active" (computing, or
// communicating) with probability q_k independently, P(i) is the
// probability that exactly i of them are active at once.
//
// No production path runs it: internal/core's slowdown kernel is the one
// DP every prediction takes. Core's tests hold the kernel to it, and the
// bench ladder times it as the bare-DP rung. Calc is the paper's
// operations stated plainly — the O(p²) dynamic program, an O(p) add and
// removal by O(p²) regeneration — in the order the caller gives.
package prob

import (
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

// P returns P(exactly i active). Out-of-range i yields 0.
func (c *Calc) P(i int) float64 {
	c.ensure()
	if i < 0 || i >= len(c.dist) {
		return 0
	}
	return c.dist[i]
}

// Dist returns a copy of the full distribution, index i = P(i active).
func (c *Calc) Dist() []float64 {
	c.ensure()
	return append([]float64(nil), c.dist...)
}

// AppendDistribution is the one-shot O(p²) DP over qs into a
// caller-supplied scratch buffer: dst's contents are discarded, its
// capacity is reused, and the resulting distribution (length len(qs)+1)
// is returned — callers that keep the returned slice as their next dst
// pay nothing after warm-up.
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
