package apps

import (
	"math"
	"testing"

	"contention/internal/des"
	"contention/internal/platform"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMakeLaplaceGrid(t *testing.T) {
	g, err := MakeLaplaceGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if g[0][j] != 100 {
			t.Fatalf("top boundary g[0][%d] = %v, want 100", j, g[0][j])
		}
	}
	if g[2][2] != 0 {
		t.Fatalf("interior not zero: %v", g[2][2])
	}
	if _, err := MakeLaplaceGrid(2); err == nil {
		t.Fatal("size 2 accepted")
	}
}

func TestSORSolveConverges(t *testing.T) {
	g, _ := MakeLaplaceGrid(17)
	res, err := SORSolve(g, 1.5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-6 {
		t.Fatalf("residual %v after 500 sweeps, want < 1e-6", res)
	}
	// The discrete harmonic solution is symmetric about the vertical
	// midline and bounded by the boundary values.
	m := len(g)
	for i := 1; i < m-1; i++ {
		for j := 1; j < m-1; j++ {
			if g[i][j] < 0 || g[i][j] > 100 {
				t.Fatalf("maximum principle violated at (%d,%d): %v", i, j, g[i][j])
			}
			if d := math.Abs(g[i][j] - g[i][m-1-j]); d > 1e-5 {
				t.Fatalf("asymmetry at (%d,%d): %v", i, j, d)
			}
		}
	}
	// Near the hot boundary values are larger than near the cold one.
	if g[1][m/2] <= g[m-2][m/2] {
		t.Fatalf("temperature gradient inverted: %v vs %v", g[1][m/2], g[m-2][m/2])
	}
}

func TestSORSolveValidation(t *testing.T) {
	g, _ := MakeLaplaceGrid(5)
	if _, err := SORSolve(g, 2.5, 10); err == nil {
		t.Fatal("omega out of range accepted")
	}
	if _, err := SORSolve(g, 1.5, 0); err == nil {
		t.Fatal("zero iterations accepted")
	}
	if _, err := SORSolve([][]float64{{1, 2}, {3}}, 1.5, 1); err == nil {
		t.Fatal("ragged grid accepted")
	}
}

func TestSORWorkScalesQuadratically(t *testing.T) {
	w100 := SORWork(102, 10) // 100×100 interior
	w200 := SORWork(202, 10) // 200×200 interior
	if !approx(w200/w100, 4, 1e-9) {
		t.Fatalf("work ratio %v, want 4 (quadratic)", w200/w100)
	}
	if got := SORWork(102, 10); !approx(got, 10*5*100*100/SunOpsRate, 1e-12) {
		t.Fatalf("SORWork = %v", got)
	}
}

func TestSORDataSets(t *testing.T) {
	sets := SORDataSets(300)
	if len(sets) != 1 || sets[0].N != 300 || sets[0].Words != 300 {
		t.Fatalf("SORDataSets = %+v", sets)
	}
}

func TestGaussSolveKnownSolution(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20} {
		a, b := MakeDiagonallyDominant(n)
		x, err := GaussSolve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range x {
			if !approx(x[i], float64(i+1), 1e-8) {
				t.Fatalf("n=%d: x[%d] = %v, want %d", n, i, x[i], i+1)
			}
		}
	}
}

func TestGaussSolvePivots(t *testing.T) {
	// Zero on the diagonal requires a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := GaussSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 3, 1e-12) || !approx(x[1], 2, 1e-12) {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestGaussSolveErrors(t *testing.T) {
	if _, err := GaussSolve(nil, nil); err == nil {
		t.Fatal("empty system accepted")
	}
	if _, err := GaussSolve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched rhs accepted")
	}
	if _, err := GaussSolve([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := GaussSolve([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestGaussCM2ProgramShape(t *testing.T) {
	prog := GaussCM2Program(100)
	if len(prog.Segments) != 100 {
		t.Fatalf("segments = %d, want 100", len(prog.Segments))
	}
	for i, seg := range prog.Segments {
		if seg.Serial <= 0 || seg.Parallel <= 0 {
			t.Fatalf("segment %d non-positive: %+v", i, seg)
		}
	}
	// Early steps touch more rows → at least as much parallel work.
	first := prog.Segments[0].Parallel
	last := prog.Segments[99].Parallel
	if first < last {
		t.Fatalf("parallel durations inverted: first %v < last %v", first, last)
	}
	if prog.TotalSerial() <= 0 || prog.TotalParallel() <= 0 {
		t.Fatal("totals must be positive")
	}
}

func TestGaussCrossoverNear200(t *testing.T) {
	// The synthetic calibration must put the serial×4 vs parallel
	// balance crossover near M = 200 (paper Figure 3).
	ratio := func(m int) float64 {
		prog := GaussCM2Program(m)
		return prog.TotalSerial() * 4 / prog.TotalParallel()
	}
	if r := ratio(100); r <= 1 {
		t.Fatalf("M=100: serial×4/parallel = %v, want > 1 (contention visible)", r)
	}
	if r := ratio(400); r >= 1 {
		t.Fatalf("M=400: serial×4/parallel = %v, want < 1 (CM2-bound)", r)
	}
	// Crossover bracket: between 150 and 300.
	if ratio(150) <= 1 || ratio(300) >= 1 {
		t.Fatalf("crossover outside (150,300): r150=%v r300=%v", ratio(150), ratio(300))
	}
}

func TestRunCM2DedicatedElapsed(t *testing.T) {
	k := des.New()
	plat := newCM2(t, k)
	prog := GaussCM2Program(50)
	var elapsed, busy, idle float64
	k.Spawn("app", func(p *des.Proc) {
		elapsed, busy, idle = RunCM2(p, plat, prog)
	})
	k.Run()
	if !approx(busy, prog.TotalParallel(), 1e-9) {
		t.Fatalf("busy = %v, want %v", busy, prog.TotalParallel())
	}
	if elapsed < prog.TotalParallel()-1e-9 || elapsed < prog.TotalSerial()-1e-9 {
		t.Fatalf("elapsed %v below both serial %v and parallel %v totals",
			elapsed, prog.TotalSerial(), prog.TotalParallel())
	}
	if elapsed > prog.TotalSerial()+prog.TotalParallel()+1e-9 {
		t.Fatalf("elapsed %v exceeds serial+parallel (no overlap at all?)", elapsed)
	}
	if !approx(busy+idle, elapsed, 1e-9) {
		t.Fatalf("busy %v + idle %v != elapsed %v", busy, idle, elapsed)
	}
}

func TestRunCM2ContendedFollowsMaxLaw(t *testing.T) {
	// With 3 CPU hogs the elapsed time approaches
	// max(parallel + idle_dedicated, serial × 4).
	prog := GaussCM2Program(120)

	// Dedicated run for didle.
	k1 := des.New()
	plat1 := newCM2(t, k1)
	var dedIdle float64
	k1.Spawn("app", func(p *des.Proc) {
		_, _, dedIdle = RunCM2(p, plat1, prog)
	})
	k1.Run()

	k2 := des.New()
	plat2 := newCM2(t, k2)
	var elapsed float64
	k2.Spawn("app", func(p *des.Proc) {
		elapsed, _, _ = RunCM2(p, plat2, prog)
	})
	plat2.SpawnCPUHogs(3)
	k2.RunUntil(1e6)
	want := math.Max(prog.TotalParallel()+dedIdle, prog.TotalSerial()*4)
	if math.Abs(elapsed-want)/want > 0.15 {
		t.Fatalf("contended elapsed %v, model %v (>15%% apart)", elapsed, want)
	}
}

func TestSyntheticCM2ProgramReproducible(t *testing.T) {
	spec := DefaultSyntheticSpec(42)
	a, err := SyntheticCM2Program(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticCM2Program(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Segments) != spec.Segments || len(b.Segments) != len(a.Segments) {
		t.Fatalf("segment counts %d/%d, want %d", len(a.Segments), len(b.Segments), spec.Segments)
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Fatalf("segment %d differs between identical seeds", i)
		}
	}
	c, err := SyntheticCM2Program(SyntheticSpec{Seed: 43, Segments: spec.Segments,
		SerialMeanOps: spec.SerialMeanOps, ParallelMean: spec.ParallelMean, SyncEvery: spec.SyncEvery})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Segments {
		if a.Segments[i] != c.Segments[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestSyntheticSpecValidation(t *testing.T) {
	bad := []SyntheticSpec{
		{Segments: 0},
		{Segments: 1, SerialMeanOps: -1},
		{Segments: 1, ParallelMean: -1},
		{Segments: 1, SyncEvery: -1},
	}
	for i, s := range bad {
		if _, err := SyntheticCM2Program(s); err == nil {
			t.Errorf("case %d did not error", i)
		}
	}
}

func TestRunCM2SyncEveryLimitsOverlap(t *testing.T) {
	// With SyncEvery=1 the program serializes: elapsed = serial + parallel.
	prog := CM2Program{Name: "sync1", SyncEvery: 1, Segments: []Segment{
		{Serial: 0.01, Parallel: 0.02},
		{Serial: 0.01, Parallel: 0.02},
	}}
	k := des.New()
	plat := newCM2(t, k)
	var elapsed float64
	k.Spawn("app", func(p *des.Proc) {
		elapsed, _, _ = RunCM2(p, plat, prog)
	})
	k.Run()
	if !approx(elapsed, 0.06, 1e-9) {
		t.Fatalf("elapsed %v, want 0.06 (fully serialized)", elapsed)
	}
}

func TestRunSORParagonScales(t *testing.T) {
	run := func(nodes int) float64 {
		k := des.New()
		sp := newParagon(t, k)
		var elapsed float64
		var err error
		k.Spawn("sor", func(p *des.Proc) {
			elapsed, err = RunSORParagon(p, sp, SORParagonSpec{M: 200, Iters: 10, Nodes: nodes})
		})
		k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	t4 := run(4)
	t16 := run(16)
	if t16 >= t4 {
		t.Fatalf("16 nodes (%v) not faster than 4 (%v)", t16, t4)
	}
	// Sublinear speedup: halo exchange costs grow with the partition.
	if t4/t16 > 4.5 {
		t.Fatalf("speedup %v looks superlinear", t4/t16)
	}
}

func TestRunSORParagonValidation(t *testing.T) {
	k := des.New()
	sp := newParagon(t, k)
	k.Spawn("bad", func(p *des.Proc) {
		for _, spec := range []SORParagonSpec{
			{M: 2, Iters: 1, Nodes: 1},
			{M: 10, Iters: 0, Nodes: 1},
			{M: 10, Iters: 1, Nodes: 0},
			{M: 10, Iters: 1, Nodes: 1000}, // more than the machine has
		} {
			if _, err := RunSORParagon(p, sp, spec); err == nil {
				t.Errorf("spec %+v accepted", spec)
			}
		}
	})
	k.Run()
}

func newCM2(t *testing.T, k *des.Kernel) *platform.SunCM2 {
	t.Helper()
	plat, err := platform.NewSunCM2(k, platform.DefaultCM2Params())
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

func newParagon(t *testing.T, k *des.Kernel) *platform.SunParagon {
	t.Helper()
	sp, err := platform.NewSunParagon(k, platform.DefaultParagonParams(platform.OneHop))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}
