package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func env(t *testing.T) *Env {
	t.Helper()
	e, err := SharedEnv()
	if err != nil {
		t.Fatalf("calibration failed: %v", err)
	}
	return e
}

func TestTables12ReproducesPaper(t *testing.T) {
	r, err := Tables12()
	if err != nil {
		t.Fatal(err)
	}
	ys := r.Series[0].Y
	if ys[0] != 16 {
		t.Fatalf("best makespan %v, want 16", ys[0])
	}
	if len(ys) != 4 {
		t.Fatalf("ranked %d assignments, want 4", len(ys))
	}
}

func TestTable3ReproducesPaper(t *testing.T) {
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if r.Series[0].Y[0] != 38 {
		t.Fatalf("best contended makespan %v, want 38", r.Series[0].Y[0])
	}
	if r.Series[0].Y[1] != 48 {
		t.Fatalf("both-on-M1 makespan %v, want 48", r.Series[0].Y[1])
	}
}

func TestTable4ReproducesPaper(t *testing.T) {
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if r.Series[0].Y[0] != 48 {
		t.Fatalf("best makespan %v, want 48", r.Series[0].Y[0])
	}
	if r.Series[0].Y[1] != 54 {
		t.Fatalf("split makespan %v, want 54", r.Series[0].Y[1])
	}
}

func TestFigure1ModelTracksActual(t *testing.T) {
	r, err := Figure1(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Err("p=0"); got > 5 {
		t.Fatalf("dedicated error %.1f%%, want < 5%%", got)
	}
	if got := r.Err("p=3"); got > 15 {
		t.Fatalf("contended error %.1f%%, want < 15%% (paper: 11%%)", got)
	}
	ded, _ := r.seriesByName("actual p=0")
	con, _ := r.seriesByName("actual p=3")
	for i := range ded.Y {
		ratio := con.Y[i] / ded.Y[i]
		if ratio < 3 || ratio > 4.2 {
			t.Fatalf("M=%v: contention ratio %.2f outside [3,4.2] (3 CPU-bound hogs)", ded.X[i], ratio)
		}
	}
}

func TestFigure2TimelineShowsInterleave(t *testing.T) {
	r, err := Figure2(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"serial instruction", "execute", "idle", "idle (await result)"} {
		if !strings.Contains(r.Text, needle) {
			t.Fatalf("timeline missing %q:\n%s", needle, r.Text)
		}
	}
	// Overlap must exist: some row shows the Sun doing serial work while
	// the CM2 executes.
	overlap := false
	for _, line := range strings.Split(r.Text, "\n") {
		if strings.Contains(line, "serial instruction") && strings.Contains(line, "execute") {
			overlap = true
			break
		}
	}
	if !overlap {
		t.Fatalf("no front-end/back-end overlap visible:\n%s", r.Text)
	}
}

func TestFigure3CrossoverShape(t *testing.T) {
	r, err := Figure3(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Err("p=3"); got > 15 {
		t.Fatalf("contended error %.1f%%, want < 15%% (paper quotes 15%%)", got)
	}
	ded, _ := r.seriesByName("actual p=0")
	con, _ := r.seriesByName("actual p=3")
	// Small problems: contention hurts (serial-bound). The paper shows
	// the gap for M < 200.
	first := con.Y[0] / ded.Y[0]
	if first < 1.25 {
		t.Fatalf("M=%v: contended/dedicated = %.2f, want > 1.25 (serial-bound)", ded.X[0], first)
	}
	// Large problems: curves join (CM2-bound).
	last := con.Y[len(con.Y)-1] / ded.Y[len(ded.Y)-1]
	if last > 1.1 {
		t.Fatalf("M=%v: contended/dedicated = %.2f, want ≤ 1.1 (CM2-bound)", ded.X[len(ded.X)-1], last)
	}
	// The crossover lands in the paper's neighbourhood.
	crossed := false
	for i := range ded.X {
		if ded.X[i] >= 150 && ded.X[i] <= 350 && con.Y[i] <= ded.Y[i]*1.1 {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Fatal("no crossover found in M ∈ [150, 350] (paper: M ≈ 200)")
	}
}

func TestFigure4PiecewiseShape(t *testing.T) {
	r, err := Figure4(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("got %d series, want 4 (2 directions × 2 modes)", len(r.Series))
	}
	for _, s := range r.Series {
		// Monotone in message size.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("%s: not increasing at %v", s.Name, s.X[i])
			}
		}
		// The knee: per-word marginal cost above the MTU exceeds the
		// marginal cost below it.
		slope := func(i, j int) float64 { return (s.Y[j] - s.Y[i]) / (s.X[j] - s.X[i]) }
		idx := func(x float64) int {
			for i, v := range s.X {
				if v == x {
					return i
				}
			}
			t.Fatalf("%s: missing x=%v", s.Name, x)
			return -1
		}
		below := slope(idx(256), idx(1024))
		above := slope(idx(1536), idx(4096))
		if above <= below*1.05 {
			t.Fatalf("%s: no knee: slope below MTU %v, above %v", s.Name, below, above)
		}
	}
	// 2-HOPS is never faster than 1-HOP for the same direction.
	oneHop, _ := r.seriesByName("sun→paragon 1-HOP")
	twoHops, _ := r.seriesByName("sun→paragon 2-HOPS")
	for i := range oneHop.Y {
		if twoHops.Y[i] < oneHop.Y[i]-1e-9 {
			t.Fatalf("2-HOPS faster than 1-HOP at %v", oneHop.X[i])
		}
	}
}

// Figure 4 simulates the platform of the Env it is given, like Figures
// 5 to 8: a slower wire moves every curve, and its 1-HOP cells are the
// dedicated bursts of Figures 5 and 6, bit for bit.
func TestFigure4FollowsEnvParams(t *testing.T) {
	base, err := Figure4(env(t))
	if err != nil {
		t.Fatal(err)
	}
	slow := *env(t)
	slow.ParagonParams.Link.Bandwidth /= 2
	r, err := Figure4(&slow)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range r.Series {
		for j, y := range s.Y {
			if y <= base.Series[i].Y[j] {
				t.Errorf("%s at %v words: %v s on half the bandwidth, %v s on the default", s.Name, s.X[j], y, base.Series[i].Y[j])
			}
		}
	}
	for name, figure := range map[string]func(*Env) (Result, error){
		"sun→paragon 1-HOP": Figure5,
		"paragon→sun 1-HOP": Figure6,
	} {
		f, err := figure(&slow)
		if err != nil {
			t.Fatal(err)
		}
		ded, _ := f.seriesByName("dedicated")
		four, _ := r.seriesByName(name)
		at := map[float64]float64{}
		for i, x := range four.X {
			at[x] = four.Y[i]
		}
		for i, x := range ded.X {
			if ded.Y[i] != at[x] {
				t.Errorf("%s at %v words: figure 4 has %v, %s's dedicated series %v", name, x, at[x], f.ID, ded.Y[i])
			}
		}
	}
}

func TestFigure5ErrorWithinPaperBand(t *testing.T) {
	r, err := Figure5(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Err("contended"); got > 20 {
		t.Fatalf("error %.1f%%, want < 20%% (paper: ≈12%%)", got)
	}
	// The contended series must sit clearly above dedicated.
	ded, _ := r.seriesByName("dedicated")
	act, _ := r.seriesByName("actual")
	for i := range ded.Y {
		if act.Y[i] < ded.Y[i]*1.2 {
			t.Fatalf("at %v words contention barely visible: %.3f vs %.3f", ded.X[i], act.Y[i], ded.Y[i])
		}
	}
}

func TestFigure6ErrorWithinPaperBand(t *testing.T) {
	r, err := Figure6(env(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper quotes ≈14% here and observes up to 30% when contenders
	// communicate intensively.
	if got := r.Err("contended"); got > 25 {
		t.Fatalf("error %.1f%%, want < 25%% (paper: ≈14%%)", got)
	}
}

func TestFigure7JSensitivity(t *testing.T) {
	r, err := Figure7(env(t))
	if err != nil {
		t.Fatal(err)
	}
	best := r.Err("j=1000")
	if best > 10 {
		t.Fatalf("j=1000 error %.1f%%, want < 10%% (paper: 4%%)", best)
	}
	if j1 := r.Err("j=1"); j1 <= best+5 {
		t.Fatalf("j=1 error %.1f%% should clearly exceed j=1000 error %.1f%% (paper: 32%% vs 4%%)", j1, best)
	}
}

func TestFigure8JSensitivity(t *testing.T) {
	r, err := Figure8(env(t))
	if err != nil {
		t.Fatal(err)
	}
	best := r.Err("j=500")
	if best > 15 {
		t.Fatalf("j=500 error %.1f%%, want < 15%% (paper: 5%%)", best)
	}
	if j1 := r.Err("j=1"); j1 <= best+5 {
		t.Fatalf("j=1 error %.1f%% should clearly exceed j=500 error %.1f%% (paper: 25%% vs 5%%)", j1, best)
	}
}

func TestAllRunsEveryDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	results, err := All(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 11 {
		t.Fatalf("got %d results, want 11 (3 tables + 8 figures)", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.ID == "" || r.Title == "" {
			t.Fatalf("result missing ID/title: %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate result ID %q", r.ID)
		}
		seen[r.ID] = true
		if out := r.Render(); !strings.Contains(out, r.ID) {
			t.Fatalf("Render output missing ID for %s", r.ID)
		}
	}
}

func TestRenderFormatsSeries(t *testing.T) {
	r := Result{
		ID: "x", Title: "t", XLabel: "n", YLabel: "s",
		Series:      []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}}},
		Notes:       []string{"hello"},
		ModelErrPct: map[string]float64{"c": 5},
		PaperErrPct: 10,
	}
	out := r.Render()
	for _, needle := range []string{"== x: t ==", "hello", "5.0%", "≈10%"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("Render missing %q:\n%s", needle, out)
		}
	}
}

func TestSyntheticSuiteWithinPaperBand(t *testing.T) {
	r, err := SyntheticCM2(env(t), 24)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Err("suite"); got > 15 {
		t.Fatalf("synthetic suite error %.1f%%, want < 15%% (paper's generality claim)", got)
	}
	if len(r.Series[0].Y) != 24 {
		t.Fatalf("modeled series has %d points, want 24", len(r.Series[0].Y))
	}
	if _, err := SyntheticCM2(env(t), 0); err == nil {
		t.Fatal("zero program count accepted")
	}
}

func TestResultMarshalsToJSON(t *testing.T) {
	r := Result{
		ID: "x", Title: "t",
		Series:      []Series{{Name: "a", X: []float64{1}, Y: []float64{2}}},
		ModelErrPct: map[string]float64{"c": 5},
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "x" || len(back.Series) != 1 || back.Series[0].Y[0] != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
