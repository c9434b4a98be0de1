// Precomputed-surface integration. The steady-state serving workload is
// dominated by homogeneous contender classes (p identical contenders, no
// I/O fraction), for which the slowdown mixtures collapse to smooth
// functions of (p, comm fraction[, j column]). internal/surface
// evaluates those functions once, on a dense grid, at calibration-load
// time; this file defines the interface the Predictor consumes, the
// checksum that version-stamps a surface against the delay tables it
// was built from, and the Try* probes that answer from the surface
// without ever running the DP — returning ok=false to send the caller
// to the exact kernel.
package core

import (
	"errors"
	"math"
)

// SlowdownSurface is the read side of a precomputed slowdown surface.
// Implementations must be goroutine-safe and allocation-free on the
// lookup methods; Comm/CompWithJ return ok=false whenever the query is
// outside the precomputed domain. A surface is immutable and may serve
// several predictors of the same tables: staleness is each predictor's
// own mark, which the Try probes check before they reach the surface.
type SlowdownSurface interface {
	// Checksum is the TablesChecksum of the DelayTables the surface was
	// built from. AttachSurface refuses a mismatch, so a surface can
	// never serve a predictor of other tables.
	Checksum() uint64
	// Comm returns the communication-slowdown mixture for p identical
	// contenders with comm fraction f (I/O fraction zero).
	Comm(p int, f float64) (float64, bool)
	// CompWithJ returns the computation-slowdown mixture for p identical
	// contenders with comm fraction f, using the delay^{i,j} column
	// nearest the words-sized message.
	CompWithJ(p int, f float64, words int) (float64, bool)
}

// surfaceBox wraps the interface so it can live in an atomic.Pointer.
type surfaceBox struct{ s SlowdownSurface }

// TablesChecksum fingerprints the delay tables with FNV-64a over a
// canonical encoding (lengths, raw float bits, j keys in ascending
// order). Surfaces are stamped with it at build time and predictors
// verify it at attach time, so a surface can never serve values
// computed from tables other than the predictor's own.
func TablesChecksum(t DelayTables) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	table := func(xs []float64) {
		mix(uint64(len(xs)))
		for _, x := range xs {
			mix(math.Float64bits(x))
		}
	}
	table(t.CompOnComm)
	table(t.CommOnComm)
	grid := t.JGrid()
	mix(uint64(len(grid)))
	for _, j := range grid {
		mix(uint64(j))
		table(t.CommOnComp[j])
	}
	return h
}

// ErrSurfaceChecksum is returned by AttachSurface when the surface was
// built from different delay tables than the predictor's.
var ErrSurfaceChecksum = errors.New("core: surface checksum does not match predictor tables")

// AttachSurface installs a precomputed surface on the fast path. The
// surface's build checksum must match the predictor's tables exactly;
// attaching is atomic and may happen while predictions are in flight.
func (p *Predictor) AttachSurface(s SlowdownSurface) error {
	if s.Checksum() != p.checksum {
		return ErrSurfaceChecksum
	}
	p.surface.Store(&surfaceBox{s: s})
	return nil
}

// Surface returns the attached surface, or nil.
func (p *Predictor) Surface() SlowdownSurface {
	if b := p.surface.Load(); b != nil {
		return b.s
	}
	return nil
}

// TablesChecksum returns the checksum of the predictor's delay tables
// (precomputed at construction).
func (p *Predictor) TablesChecksum() uint64 { return p.checksum }

// homogeneousFraction reports whether the multiset is surface-resident:
// every contender shares one comm fraction and spends no time in I/O.
// (Message sizes may differ — they select the j column, not the class.)
func homogeneousFraction(cs []Contender) (float64, bool) {
	if len(cs) == 0 {
		return 0, true
	}
	f := cs[0].CommFraction
	for _, c := range cs {
		if c.CommFraction != f || c.IOFraction != 0 {
			return 0, false
		}
	}
	return f, true
}

// --- Try fast path -----------------------------------------------------------
//
// The Try* methods are surface-only probes: a surface lookup, and
// ok=false — never an error, never a DP — when the surface cannot
// answer. They are allocation-free and safe under concurrent
// MarkStale/AttachSurface.

// TryCommSlowdown answers the communication-slowdown mixture from the
// surface, without running the DP.
func (p *Predictor) TryCommSlowdown(cs []Contender) (float64, bool) {
	if p.tablesErr != nil || p.stale.Load() != nil {
		return 0, false
	}
	if b := p.surface.Load(); b != nil {
		if f, ok := homogeneousFraction(cs); ok {
			if v, ok := b.s.Comm(len(cs), f); ok {
				mSurfaceHitComm.Inc()
				return v, true
			}
		}
		mSurfaceMissComm.Inc()
	}
	return 0, false
}

// TryCompSlowdownWithJ answers the computation-slowdown mixture for an
// explicit message size, surface first.
func (p *Predictor) TryCompSlowdownWithJ(cs []Contender, j int) (float64, bool) {
	if p.tablesErr != nil || p.stale.Load() != nil {
		return 0, false
	}
	if b := p.surface.Load(); b != nil {
		if f, ok := homogeneousFraction(cs); ok {
			if v, ok := b.s.CompWithJ(len(cs), f, j); ok {
				mSurfaceHitComp.Inc()
				return v, true
			}
		}
		mSurfaceMissComp.Inc()
	}
	return 0, false
}

// TryCompSlowdown is TryCompSlowdownWithJ under the paper's auto-j rule
// (maximum contender message size).
func (p *Predictor) TryCompSlowdown(cs []Contender) (float64, bool) {
	return p.TryCompSlowdownWithJ(cs, autoJ(cs))
}

// TryPredictComm is the fast-path PredictComm: dcomm × slowdown when
// the surface holds the slowdown, ok=false otherwise (including when
// the dedicated model cannot price the transfer — the slow path owns
// error reporting).
func (p *Predictor) TryPredictComm(dir Direction, sets []DataSet, cs []Contender) (float64, bool) {
	s, ok := p.TryCommSlowdown(cs)
	if !ok {
		return 0, false
	}
	dcomm, err := p.DedicatedComm(dir, sets)
	if err != nil {
		return 0, false
	}
	mPredictComm.Inc()
	return dcomm * s, true
}

// TryPredictComp is the fast-path PredictComp (auto-j).
func (p *Predictor) TryPredictComp(dcomp float64, cs []Contender) (float64, bool) {
	if dcomp < 0 || math.IsNaN(dcomp) {
		return 0, false
	}
	s, ok := p.TryCompSlowdown(cs)
	if !ok {
		return 0, false
	}
	mPredictComp.Inc()
	return dcomp * s, true
}

// TryPredictCompWithJ is the fast-path PredictCompWithJ.
func (p *Predictor) TryPredictCompWithJ(dcomp float64, cs []Contender, j int) (float64, bool) {
	if dcomp < 0 || math.IsNaN(dcomp) {
		return 0, false
	}
	s, ok := p.TryCompSlowdownWithJ(cs, j)
	if !ok {
		return 0, false
	}
	mPredictComp.Inc()
	return dcomp * s, true
}
