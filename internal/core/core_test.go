package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCommPieceTime(t *testing.T) {
	p := CommPiece{Alpha: 0.01, Beta: 1000}
	if got := p.Time(500); !approx(got, 0.51, 1e-12) {
		t.Fatalf("Time(500) = %v, want 0.51", got)
	}
}

func TestUniformModel(t *testing.T) {
	m := Uniform(0.1, 100)
	if got := m.MessageTime(10); !approx(got, 0.2, 1e-12) {
		t.Fatalf("MessageTime(10) = %v, want 0.2", got)
	}
	if got := m.MessageTime(1 << 30); got <= 0 {
		t.Fatalf("huge message time = %v", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCommModelPiecewiseSelection(t *testing.T) {
	m := CommModel{
		Threshold: 1024,
		Small:     CommPiece{Alpha: 0.001, Beta: 1e6},
		Large:     CommPiece{Alpha: 0.005, Beta: 5e5},
	}
	if got, want := m.MessageTime(1024), 0.001+1024/1e6; !approx(got, want, 1e-12) {
		t.Fatalf("at threshold: %v, want %v (small piece)", got, want)
	}
	if got, want := m.MessageTime(1025), 0.005+1025/5e5; !approx(got, want, 1e-12) {
		t.Fatalf("past threshold: %v, want %v (large piece)", got, want)
	}
}

func TestDedicatedSumsDataSets(t *testing.T) {
	m := Uniform(0.5, 10) // msg cost = 0.5 + words/10
	got, err := m.Dedicated([]DataSet{{N: 2, Words: 10}, {N: 1, Words: 20}})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*(0.5+1.0) + 1*(0.5+2.0)
	if !approx(got, want, 1e-12) {
		t.Fatalf("Dedicated = %v, want %v", got, want)
	}
}

func TestDedicatedValidatesSets(t *testing.T) {
	m := Uniform(0.5, 10)
	if _, err := m.Dedicated([]DataSet{{N: -1, Words: 10}}); err == nil {
		t.Fatal("negative N did not error")
	}
	if _, err := m.Dedicated([]DataSet{{N: 1, Words: -1}}); err == nil {
		t.Fatal("negative Words did not error")
	}
}

func TestCommModelValidate(t *testing.T) {
	bad := []CommModel{
		{Threshold: 1024, Small: CommPiece{0, 0}, Large: CommPiece{0, 1}},
		{Threshold: 1024, Small: CommPiece{-1, 1}, Large: CommPiece{0, 1}},
		{Threshold: 0, Small: CommPiece{0, 1}, Large: CommPiece{0, 1}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d did not error", i)
		}
	}
}

func TestContenderValidate(t *testing.T) {
	if err := (Contender{CommFraction: 0.5, MsgWords: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Contender{
		{CommFraction: -0.1},
		{CommFraction: 1.1},
		{CommFraction: math.NaN()},
		{CommFraction: 0.5, MsgWords: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("contender %+v did not error", c)
		}
	}
}

func TestSimpleSlowdown(t *testing.T) {
	for p := 0; p <= 5; p++ {
		if got := SimpleSlowdown(p); got != float64(p+1) {
			t.Fatalf("SimpleSlowdown(%d) = %v", p, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative p did not panic")
		}
	}()
	SimpleSlowdown(-1)
}

func TestNearestJRule(t *testing.T) {
	tables := DelayTables{CommOnComp: map[int][]float64{
		1:    {0.1},
		500:  {0.5},
		1000: {1.0},
	}}
	cases := []struct {
		words int
		want  int
	}{
		{1, 1},       // tiny message: j=1 eligible
		{50, 1},      // below 95: j=1 eligible and nearest
		{94, 1},      // just below the limit
		{95, 500},    // at the limit j=1 excluded
		{200, 500},   // nearest of {500,1000}
		{700, 500},   // nearest is 500
		{750, 500},   // equidistant: the smaller column wins
		{800, 1000},  // nearest is 1000
		{5000, 1000}, // clamps to largest
	}
	for _, c := range cases {
		got, err := tables.NearestJ(c.words)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("NearestJ(%d) = %d, want %d", c.words, got, c.want)
		}
	}
	// A table whose only column is j=1 uses it at any size.
	only1 := DelayTables{CommOnComp: map[int][]float64{1: {0.1}}}
	for _, words := range []int{95, 5000} {
		if got, err := only1.NearestJ(words); err != nil || got != 1 {
			t.Errorf("j=1 only: NearestJ(%d) = %d, %v, want 1", words, got, err)
		}
	}
}

func TestNearestJEmptyTables(t *testing.T) {
	if _, err := (DelayTables{}).NearestJ(100); err == nil {
		t.Fatal("NearestJ with no columns did not error")
	}
}

func TestJGridSorted(t *testing.T) {
	tables := DelayTables{CommOnComp: map[int][]float64{1000: nil, 1: nil, 500: nil}}
	grid := tables.JGrid()
	want := []int{1, 500, 1000}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("JGrid = %v, want %v", grid, want)
		}
	}
}

func TestCommSlowdownPaperStructure(t *testing.T) {
	// p=2 contenders: comm 20%/30%. With delay tables set to make the
	// formula transparent: delay^i_comp = i (pure CPU sharing would add
	// i), delay^i_comm = 2i.
	cs := []Contender{
		{CommFraction: 0.2, MsgWords: 100},
		{CommFraction: 0.3, MsgWords: 100},
	}
	tables := DelayTables{
		CompOnComm: []float64{1, 2},
		CommOnComm: []float64{2, 4},
	}
	got, err := CommSlowdown(cs, tables)
	if err != nil {
		t.Fatal(err)
	}
	pcomp1 := 0.8*0.3 + 0.7*0.2
	pcomp2 := 0.8 * 0.7
	pcomm1 := 0.2*0.7 + 0.3*0.8
	pcomm2 := 0.2 * 0.3
	want := 1 + pcomp1*1 + pcomp2*2 + pcomm1*2 + pcomm2*4
	if !approx(got, want, 1e-12) {
		t.Fatalf("CommSlowdown = %v, want %v", got, want)
	}
}

func TestCommSlowdownNoContenders(t *testing.T) {
	got, err := CommSlowdown(nil, DelayTables{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("CommSlowdown(nil) = %v, want 1", got)
	}
}

func TestCompSlowdownUsesCPUShareTerm(t *testing.T) {
	// Pure CPU-bound contenders (comm fraction 0): slowdown must equal
	// p+1 regardless of the delay tables — first summation only.
	cs := []Contender{{CommFraction: 0}, {CommFraction: 0}, {CommFraction: 0}}
	tables := DelayTables{CommOnComp: map[int][]float64{1000: {9, 9, 9}}}
	got, err := CompSlowdown(cs, tables)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 4, 1e-12) {
		t.Fatalf("CompSlowdown CPU-bound = %v, want 4", got)
	}
}

func TestCompSlowdownWithJSelectsColumn(t *testing.T) {
	cs := []Contender{{CommFraction: 1, MsgWords: 1000}}
	tables := DelayTables{CommOnComp: map[int][]float64{
		1:    {0.1},
		500:  {0.5},
		1000: {2.0},
	}}
	// Contender always communicates: pcomm_1 = 1, pcomp_1 = 0.
	got, err := CompSlowdownWithJ(cs, tables, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 3, 1e-12) {
		t.Fatalf("j=1000: %v, want 3", got)
	}
	got, err = CompSlowdownWithJ(cs, tables, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 1.5, 1e-12) {
		t.Fatalf("j=500: %v, want 1.5", got)
	}
}

func TestCompSlowdownDefaultsToMaxMessageSize(t *testing.T) {
	cs := []Contender{
		{CommFraction: 1, MsgWords: 200},
		{CommFraction: 1, MsgWords: 900},
	}
	tables := DelayTables{CommOnComp: map[int][]float64{
		500:  {1, 2},
		1000: {10, 20},
	}}
	// max msg = 900 → nearest j = 1000 → delays 10, 20.
	got, err := CompSlowdown(cs, tables)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + 0 /*pcomp terms: both always communicate*/ + 0*10 + 1*20
	if !approx(got, want, 1e-12) {
		t.Fatalf("CompSlowdown = %v, want %v", got, want)
	}
}

func TestDelayLookupClampsBeyondTable(t *testing.T) {
	cs := []Contender{
		{CommFraction: 0}, {CommFraction: 0}, {CommFraction: 0}, {CommFraction: 0},
	}
	// Table only covers i=1..2; lookups for i=3,4 clamp to entry 2.
	tables := DelayTables{CompOnComm: []float64{1, 5}}
	got, err := CommSlowdown(cs, tables)
	if err != nil {
		t.Fatal(err)
	}
	// All compute: pcomp_4 = 1 → 1 + 5 = 6.
	if !approx(got, 6, 1e-12) {
		t.Fatalf("clamped CommSlowdown = %v, want 6", got)
	}
}

func TestCM2ExecTime(t *testing.T) {
	// Parallel dominated: max picks dcomp+didle.
	if got := CM2ExecTime(10, 2, 1, 3); !approx(got, 12, 1e-12) {
		t.Fatalf("parallel-dominated = %v, want 12", got)
	}
	// Serial dominated under contention: dserial × (p+1).
	if got := CM2ExecTime(2, 1, 5, 3); !approx(got, 20, 1e-12) {
		t.Fatalf("serial-dominated = %v, want 20", got)
	}
	// Dedicated: idle never exceeds serial, so serial wins at p=0 only
	// if dserial > dcomp+didle.
	if got := CM2ExecTime(2, 1, 5, 0); !approx(got, 5, 1e-12) {
		t.Fatalf("dedicated = %v, want 5", got)
	}
}

func TestCM2CommTime(t *testing.T) {
	if got := CM2CommTime(2, 3); !approx(got, 8, 1e-12) {
		t.Fatalf("CM2CommTime = %v, want 8", got)
	}
}

func TestShouldOffload(t *testing.T) {
	if !ShouldOffload(10, 3, 2, 2) {
		t.Fatal("10 > 7: should offload")
	}
	if ShouldOffload(7, 3, 2, 2) {
		t.Fatal("7 = 7: should not offload")
	}
	if ShouldOffload(5, 3, 2, 2) {
		t.Fatal("5 < 7: should not offload")
	}
}

func TestDelayTablesValidate(t *testing.T) {
	bad := []DelayTables{
		{CompOnComm: []float64{-1}},
		{CommOnComm: []float64{math.NaN()}},
		{CommOnComp: map[int][]float64{0: {1}}},
		{CommOnComp: map[int][]float64{500: {-2}}},
	}
	for i, tb := range bad {
		if err := tb.Validate(); err == nil {
			t.Errorf("case %d did not error", i)
		}
	}
}

// Property: slowdown factors are always ≥ 1 and monotone in the delay
// tables (scaling all delays up cannot reduce the slowdown).
func TestSlowdownBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(5)
		cs := make([]Contender, p)
		for i := range cs {
			cs[i] = Contender{CommFraction: r.Float64(), MsgWords: 1 + r.Intn(2000)}
		}
		tables := DelayTables{
			CompOnComm: randTable(r, p),
			CommOnComm: randTable(r, p),
			CommOnComp: map[int][]float64{1: randTable(r, p), 500: randTable(r, p), 1000: randTable(r, p)},
		}
		s1, err := CommSlowdown(cs, tables)
		if err != nil || s1 < 1 {
			return false
		}
		s2, err := CompSlowdown(cs, tables)
		if err != nil || s2 < 1 {
			return false
		}
		// Double all delays: slowdowns cannot decrease.
		tables2 := DelayTables{
			CompOnComm: scale(tables.CompOnComm, 2),
			CommOnComm: scale(tables.CommOnComm, 2),
			CommOnComp: map[int][]float64{
				1: scale(tables.CommOnComp[1], 2), 500: scale(tables.CommOnComp[500], 2), 1000: scale(tables.CommOnComp[1000], 2),
			},
		}
		s1b, err := CommSlowdown(cs, tables2)
		if err != nil || s1b < s1-1e-12 {
			return false
		}
		s2b, err := CompSlowdown(cs, tables2)
		return err == nil && s2b >= s2-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randTable(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64() * 3
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * f
	}
	return out
}

// Property: CM2ExecTime is nondecreasing in p and bounded below by the
// dedicated time.
func TestCM2ExecMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dcomp := r.Float64() * 10
		didle := r.Float64() * 5
		dserial := r.Float64() * 10
		prev := 0.0
		for p := 0; p < 6; p++ {
			cur := CM2ExecTime(dcomp, didle, dserial, p)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return CM2ExecTime(dcomp, didle, dserial, 0) >= math.Max(dcomp+didle, dserial)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
