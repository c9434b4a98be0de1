package surface_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"contention/internal/calibrate"
	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/platform"
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

// TestSurfaceNodesMatchPredictor is the exhaustive form of the
// differential above: every node of a default build — each p, each grid
// fraction, the communication row and every calibrated column — equals
// the Predictor's own answer bit for bit.
func TestSurfaceNodesMatchPredictor(t *testing.T) {
	cal := serve.SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	s, err := surface.Build(cal.Tables, surface.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	for p := 0; p <= st.MaxContenders; p++ {
		for k := 0; k <= st.GridCells; k++ {
			f := float64(k) / float64(st.GridCells)
			cs := homog(p, f)
			want, err := pred.CommSlowdown(cs)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Comm(p, f); !ok || got != want {
				t.Fatalf("Comm(%d, %v) = %v ok=%v, want %v", p, f, got, ok, want)
			}
			for _, j := range cal.Tables.JGrid() {
				want, err := pred.CompSlowdownWithJ(cs, j)
				if err != nil {
					t.Fatal(err)
				}
				if got, ok := s.CompWithJ(p, f, j); !ok || got != want {
					t.Fatalf("CompWithJ(%d, %v, %d) = %v ok=%v, want %v", p, f, j, got, ok, want)
				}
			}
		}
	}
}

// surfaceDigest is SHA-256 over everything a surface answers: for each
// p, the communication slowdown at every node and at two off-grid
// fractions per interval (which read both of its nodes), the f = 0
// computation slowdown, and the same sweep for every column in jGrid;
// then the build's Stats.
func surfaceDigest(s *surface.Surface, jGrid []int) string {
	st := s.Stats()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	read := func(v float64, ok bool) {
		put(math.Float64bits(v))
		if ok {
			put(1)
		} else {
			put(0)
		}
	}
	cells := float64(st.GridCells)
	var fs []float64
	for k := 0; k <= st.GridCells; k++ {
		fs = append(fs, float64(k)/cells)
		if k < st.GridCells {
			fs = append(fs, (float64(k)+0.25)/cells, (float64(k)+0.75)/cells)
		}
	}
	for p := 0; p <= st.MaxContenders; p++ {
		for _, f := range fs {
			read(s.Comm(p, f))
		}
		read(s.CompWithJ(p, 0, 0))
		for _, j := range jGrid {
			for _, f := range fs {
				read(s.CompWithJ(p, f, j))
			}
		}
	}
	put(uint64(st.Fills))
	put(math.Float64bits(st.MaxRelError))
	put(uint64(st.Columns))
	put(st.Checksum)
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildMatchesParent pins the bits of whole surfaces, recorded
// before Build evaluated the grid one comm fraction at a time: the
// defaults, a small grid, a contender range past the kernel's stack
// scratch, the Paragon tables the calibration suite produces, and tables
// with no delay^{i,j} columns (only the f = 0 computation slowdown).
func TestBuildMatchesParent(t *testing.T) {
	paragon, err := calibrate.Run(calibrate.DefaultOptions(platform.DefaultParagonParams(platform.OneHop)))
	if err != nil {
		t.Fatal(err)
	}
	noCols := testTables()
	noCols.CommOnComp = nil
	cases := []struct {
		name   string
		tables core.DelayTables
		cfg    surface.Config
		fills  int
		digest string
	}{
		{"defaults", testTables(), surface.Config{}, 34901,
			"5bfddf48b79fdcabacc4c3ccb5022d007fdc2b00ff7fb8b1ae409505e5db0bc2"},
		{"8x64", testTables(), surface.Config{MaxContenders: 8, GridCells: 64}, 2349,
			"05e94d4a2f1392bdcdf1ec13c78fb6efe27e89c0301bbea80d77483378216b22"},
		{"70x16", testTables(), surface.Config{MaxContenders: 70, GridCells: 16}, 4899,
			"85c011f01e1ded4f87b530630812708c79d67b16fdd5ec0e0a043c9c4cfac00f"},
		{"paragon", paragon.Tables, surface.Config{}, 34901,
			"c3bff3c8fcaf8f5f8803779727f9ff94ece376192db589dbc0f98a9598161f63"},
		{"no-columns", noCols, surface.Config{}, 8738,
			"1bf9748d20d63ce6e764c0d4c152dfc83a63b611a7bfb5e39ead3a29ade93981"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := surface.Build(tc.tables, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fills := s.Stats().Fills; fills != tc.fills {
				t.Errorf("Fills = %d, want %d", fills, tc.fills)
			}
			if got := surfaceDigest(s, tc.tables.JGrid()); got != tc.digest {
				t.Errorf("digest %s, want %s", got, tc.digest)
			}
		})
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

// TestSurfaceInvalidation is the staleness protocol: MarkStale stops the
// Try path, ClearStale restores it, a recalibration adoption stops the
// superseded predictor's, and a surface can never attach to tables it
// was not built from.
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
	if _, ok := pred.TryCommSlowdown(cs); ok {
		t.Fatal("stale predictor must not answer from the Try path")
	}

	pred.ClearStale()
	if _, ok := pred.TryCommSlowdown(cs); !ok {
		t.Fatal("cleared predictor's surface should answer again")
	}

	// Recalibration: adopting a new predictor marks the old one stale,
	// so the old pair can never serve fresh traffic that was re-pointed
	// at the new predictor.
	cal2 := serve.SyntheticCalibration()
	cal2.Tables.CompOnComm = append([]float64(nil), cal2.Tables.CompOnComm...)
	cal2.Tables.CompOnComm[0] += 0.01
	pred2, err := core.NewPredictor(cal2)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := caltrust.NewTracker(pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracker.Adopt(pred2); err != nil {
		t.Fatal(err)
	}
	if pred.Stale() == "" {
		t.Fatal("superseded predictor must be marked stale")
	}
	if _, ok := pred.TryCommSlowdown(cs); ok {
		t.Fatal("superseded predictor must not serve from its surface")
	}

	// The old surface was built from different tables: it cannot attach
	// to the new predictor.
	if err := pred2.AttachSurface(s); !errors.Is(err, core.ErrSurfaceChecksum) {
		t.Fatalf("cross-tables attach: err = %v, want ErrSurfaceChecksum", err)
	}
}

// TestSharedSurfaceStalenessIsPerPredictor: one surface attached to two
// predictors of one calibration serves the fresh one while the other is
// stale, as it is after Tracker.Adopt supersedes it.
func TestSharedSurfaceStalenessIsPerPredictor(t *testing.T) {
	cal := serve.SyntheticCalibration()
	s, err := surface.Build(cal.Tables, surface.Config{MaxContenders: 8, GridCells: 64})
	if err != nil {
		t.Fatal(err)
	}
	var preds [2]*core.Predictor
	for i := range preds {
		if preds[i], err = core.NewPredictor(cal); err != nil {
			t.Fatal(err)
		}
		if err := preds[i].AttachSurface(s); err != nil {
			t.Fatal(err)
		}
	}
	cs := homog(3, 0.25)
	preds[0].MarkStale("superseded by recalibration")
	if _, ok := preds[0].TryCommSlowdown(cs); ok {
		t.Fatal("stale predictor answered from the shared surface")
	}
	if _, ok := preds[1].TryCommSlowdown(cs); !ok {
		t.Fatal("fresh predictor lost its fast path when the other predictor sharing its surface went stale")
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

// BenchmarkBuild is the start-up cost of a surface: the default grid on
// the synthetic tables, what contentiond -surface builds.
func BenchmarkBuild(b *testing.B) {
	tab := testTables()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := surface.Build(tab, surface.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
