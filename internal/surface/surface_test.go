package surface_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/serve"
	"contention/internal/surface"
)

func testTables() core.DelayTables { return serve.SyntheticCalibration().Tables }

func homog(p int, f float64) []core.Contender {
	cs := make([]core.Contender, p)
	for i := range cs {
		cs[i] = core.Contender{CommFraction: f, MsgWords: 500}
	}
	return cs
}

// TestSurfaceMatchesDP is the randomized differential: 10k random
// (multiset, p, j) queries against the exact DP. Queries whose comm
// fraction lands on a grid node (dyadic k/cells) must match bit-exactly;
// off-grid queries must interpolate within 1e-3 relative — the bound
// DESIGN §6 derives from the mixture's Bernstein-form curvature.
func TestSurfaceMatchesDP(t *testing.T) {
	tab := testTables()
	const maxP, cells = 12, 512
	s, err := surface.Build(tab, surface.Config{MaxContenders: maxP, GridCells: cells})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MaxRelError > 1e-3 {
		t.Fatalf("build-time sampled interpolation error %.3g exceeds 1e-3", st.MaxRelError)
	}
	rng := rand.New(rand.NewSource(42))
	exactChecked, interpChecked := 0, 0
	for i := 0; i < 10_000; i++ {
		p := rng.Intn(maxP + 1)
		onGrid := rng.Intn(2) == 0
		var f float64
		if onGrid {
			f = float64(rng.Intn(cells+1)) / cells
		} else {
			f = rng.Float64()
		}
		cs := homog(p, f)
		words := rng.Intn(2000)

		wantComm, err := core.CommSlowdown(cs, tab)
		if err != nil {
			t.Fatal(err)
		}
		gotComm, ok := s.Comm(p, f)
		if !ok {
			t.Fatalf("Comm(%d, %v) missed", p, f)
		}
		wantComp, err := core.CompSlowdownWithJ(cs, tab, words)
		if err != nil {
			t.Fatal(err)
		}
		gotComp, ok := s.CompWithJ(p, f, words)
		if !ok {
			t.Fatalf("CompWithJ(%d, %v, %d) missed", p, f, words)
		}

		if onGrid {
			exactChecked++
			if gotComm != wantComm {
				t.Fatalf("grid-node Comm(%d, %v) = %v, want bit-exact %v", p, f, gotComm, wantComm)
			}
			if gotComp != wantComp {
				t.Fatalf("grid-node CompWithJ(%d, %v, %d) = %v, want bit-exact %v", p, f, words, gotComp, wantComp)
			}
		} else {
			interpChecked++
			if rel := math.Abs(gotComm-wantComm) / wantComm; rel > 1e-3 {
				t.Fatalf("Comm(%d, %v): rel error %.3g > 1e-3 (got %v want %v)", p, f, rel, gotComm, wantComm)
			}
			if rel := math.Abs(gotComp-wantComp) / wantComp; rel > 1e-3 {
				t.Fatalf("CompWithJ(%d, %v, %d): rel error %.3g > 1e-3 (got %v want %v)", p, f, words, rel, gotComp, wantComp)
			}
		}
	}
	if exactChecked == 0 || interpChecked == 0 {
		t.Fatalf("degenerate split: %d exact, %d interpolated", exactChecked, interpChecked)
	}
}

// TestSurfaceTryPath covers the Predictor integration: surface answers
// homogeneous queries; heterogeneous and out-of-domain queries miss —
// the Try path is a surface-only probe.
func TestSurfaceTryPath(t *testing.T) {
	cal := serve.SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	s, err := surface.Build(cal.Tables, surface.Config{MaxContenders: 8, GridCells: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.AttachSurface(s); err != nil {
		t.Fatal(err)
	}

	cs := homog(3, 0.25)
	want, err := pred.CommSlowdown(cs)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := pred.TryCommSlowdown(cs)
	if !ok || got != want {
		t.Fatalf("TryCommSlowdown = %v ok=%v, want %v (surface-resident, dyadic)", got, ok, want)
	}

	// Heterogeneous: off-class for the surface.
	hetero := []core.Contender{{CommFraction: 0.2, MsgWords: 100}, {CommFraction: 0.4, MsgWords: 900}}
	if _, ok := pred.TryCommSlowdown(hetero); ok {
		t.Fatal("heterogeneous multiset should miss the Try path")
	}

	// Beyond the surface's contender range: must miss, not extrapolate.
	if _, ok := pred.TryCompSlowdownWithJ(homog(9, 0.5), 500); ok {
		t.Fatal("p beyond surface MaxContenders should miss")
	}
}

// TestSurfaceInvalidation is the staleness protocol: MarkStale
// invalidates, ClearStale revalidates through the checksum gate, a
// recalibration adoption invalidates the superseded predictor's
// surface, and a surface can never attach to (or revalidate against)
// tables it was not built from.
func TestSurfaceInvalidation(t *testing.T) {
	cal := serve.SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	s, err := surface.Build(cal.Tables, surface.Config{MaxContenders: 8, GridCells: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.AttachSurface(s); err != nil {
		t.Fatal(err)
	}
	cs := homog(3, 0.25)
	if _, ok := pred.TryCommSlowdown(cs); !ok {
		t.Fatal("attached surface should answer")
	}

	pred.MarkStale("regime change")
	if s.Valid() {
		t.Fatal("MarkStale must invalidate the attached surface")
	}
	if _, ok := pred.TryCommSlowdown(cs); ok {
		t.Fatal("stale predictor must not answer from the Try path")
	}
	if _, ok := s.Comm(3, 0.25); ok {
		t.Fatal("invalidated surface must refuse lookups")
	}

	pred.ClearStale()
	if !s.Valid() {
		t.Fatal("ClearStale must revalidate a same-tables surface")
	}
	if _, ok := pred.TryCommSlowdown(cs); !ok {
		t.Fatal("revalidated surface should answer again")
	}

	// Recalibration: adopting a new predictor marks the old one stale,
	// which invalidates its surface — the old pair can never serve fresh
	// traffic that was re-pointed at the new predictor.
	cal2 := serve.SyntheticCalibration()
	cal2.Tables.CompOnComm = append([]float64(nil), cal2.Tables.CompOnComm...)
	cal2.Tables.CompOnComm[0] += 0.01
	pred2, err := core.NewPredictor(cal2)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := caltrust.NewTracker(pred, caltrust.DefaultTrackerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tracker.Adopt(pred2); err != nil {
		t.Fatal(err)
	}
	if pred.Stale() == "" {
		t.Fatal("superseded predictor must be marked stale")
	}
	if s.Valid() {
		t.Fatal("superseded predictor's surface must be invalidated")
	}
	if _, ok := pred.TryCommSlowdown(cs); ok {
		t.Fatal("superseded predictor must not serve from its surface")
	}

	// The old surface was built from different tables: it can neither
	// attach to the new predictor nor revalidate against its checksum.
	if err := pred2.AttachSurface(s); !errors.Is(err, core.ErrSurfaceChecksum) {
		t.Fatalf("cross-tables attach: err = %v, want ErrSurfaceChecksum", err)
	}
	if s.Revalidate(core.TablesChecksum(cal2.Tables)) {
		t.Fatal("cross-tables revalidation must fail")
	}
	if s.Revalidate(core.TablesChecksum(cal.Tables)) != true {
		t.Fatal("same-tables revalidation must succeed")
	}
}

// TestSurfaceLookupAllocationFree pins the fast path at exactly zero
// allocations per lookup — raw surface lookups and the full Predictor
// Try path.
func TestSurfaceLookupAllocationFree(t *testing.T) {
	cal := serve.SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	s, err := surface.Build(cal.Tables, surface.Config{MaxContenders: 8, GridCells: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.AttachSurface(s); err != nil {
		t.Fatal(err)
	}
	cs := homog(4, 0.3)
	sets := []core.DataSet{{N: 10, Words: 800}}

	cases := []struct {
		name string
		fn   func() bool
	}{
		{"Surface.Comm", func() bool { _, ok := s.Comm(4, 0.3); return ok }},
		{"Surface.CompWithJ", func() bool { _, ok := s.CompWithJ(4, 0.3, 700); return ok }},
		{"TryCommSlowdown/surface", func() bool { _, ok := pred.TryCommSlowdown(cs); return ok }},
		{"TryCompSlowdownWithJ/surface", func() bool { _, ok := pred.TryCompSlowdownWithJ(cs, 500); return ok }},
		{"TryPredictComm", func() bool { _, ok := pred.TryPredictComm(core.HostToBack, sets, cs); return ok }},
		{"TryPredictComp", func() bool { _, ok := pred.TryPredictComp(2.5, cs); return ok }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.fn() {
				t.Fatal("lookup missed")
			}
			if allocs := testing.AllocsPerRun(200, func() {
				if !tc.fn() {
					t.Fatal("lookup missed")
				}
			}); allocs != 0 {
				t.Fatalf("lookup allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}
