// SOR on the Sun under communicating contenders — the paper's Figure
// 7/8 scenario. The example first runs the real SOR kernel to show the
// numerics, then predicts its contended execution time with the
// computation-slowdown model, sweeping the j column to show why the
// contenders' message size must be taken into account.
package main

import (
	"fmt"
	"log"
	"math"

	"contention"
)

func main() {
	// The real kernel: solve Laplace's equation on a 33×33 grid.
	grid, err := contention.MakeLaplaceGrid(33)
	if err != nil {
		log.Fatal(err)
	}
	res, err := contention.SORSolve(grid, 1.5, 800)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SOR solved a 33×33 Laplace problem: residual %.2e, center value %.3f\n\n",
		res, grid[16][16])

	// Calibrate the platform once.
	params := contention.DefaultParagonParams(contention.OneHop)
	cal, err := contention.Calibrate(contention.DefaultCalibrationOptions(params))
	if err != nil {
		log.Fatal(err)
	}

	// The Figure 7 workload: contenders communicating 66% of the time
	// with 800-word messages and 33% with 1200-word messages.
	contenders := []contention.Contender{
		{CommFraction: 0.66, MsgWords: 800},
		{CommFraction: 0.33, MsgWords: 1200},
	}
	specs := []contention.AlternatorSpec{
		{Name: "alt66", CommFraction: 0.66, MsgWords: 800, Period: 0.1, Phase: 0.017, Direction: contention.SunToParagon},
		{Name: "alt33", CommFraction: 0.33, MsgWords: 1200, Period: 0.1, Phase: 0.031, Direction: contention.ParagonToSun},
	}

	const m, iters = 300, 20
	dcomp := contention.SORWork(m, iters)

	// Actual contended run on the simulated platform.
	k := contention.NewKernel()
	defer k.Close()
	sp, err := contention.NewSunParagon(k, params)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range specs {
		if _, err := contention.SpawnAlternator(sp, s); err != nil {
			log.Fatal(err)
		}
	}
	actual := -1.0
	k.Spawn("sor", func(p *contention.Proc) {
		p.Delay(0.5)
		start := p.Now()
		sp.Host.Compute(p, dcomp)
		actual = p.Now() - start
		k.Stop()
	})
	k.Run()

	fmt.Printf("SOR %d×%d, %d sweeps: dedicated %.2fs, actual under contention %.2fs\n",
		m, m, iters, dcomp, actual)
	fmt.Println("model predictions by delay^{i,j} column:")
	for _, j := range []int{1, 500, 1000} {
		s, err := contention.CompSlowdownWithJ(contenders, cal.Tables, j)
		if err != nil {
			log.Fatal(err)
		}
		pred := dcomp * s
		fmt.Printf("  j=%-5d slowdown %.3f → %.2fs (error %.1f%%)\n",
			j, s, pred, 100*math.Abs(pred-actual)/actual)
	}
	auto, err := contention.CompSlowdown(contenders, cal.Tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  auto j (max contender message size, nearest column): slowdown %.3f → %.2fs\n",
		auto, dcomp*auto)
	fmt.Println("\nthe paper reports 4% error with j=1000, 16% with j=500, 32% with j=1")
}
