// Multi-machine: the paper's "generalization of these results to more
// than two machines is straightforward" made concrete. One front-end
// drives two back-end machines over separate links; the per-link
// slowdown distinguishes a contender on the target link (CPU + wire)
// from one on another link (CPU only), and a dynamic job-mix timeline
// is predicted with the phased model.
package main

import (
	"fmt"
	"log"
	"math"

	"contention"
)

func main() {
	params := contention.DefaultParagonParams(contention.OneHop)
	cal, err := contention.Calibrate(contention.DefaultCalibrationOptions(params))
	if err != nil {
		log.Fatal(err)
	}

	a := contention.Contender{CommFraction: 0.76, MsgWords: 200}
	b := contention.Contender{CommFraction: 0.66, MsgWords: 800}

	// Per-link slowdowns for a transfer on link 0 under two placements.
	split, err := contention.CommSlowdownMulti(0, []contention.MultiContender{
		{Contender: a, Link: 0}, {Contender: b, Link: 1},
	}, cal.Tables)
	if err != nil {
		log.Fatal(err)
	}
	same, err := contention.CommSlowdownMulti(0, []contention.MultiContender{
		{Contender: a, Link: 0}, {Contender: b, Link: 0},
	}, cal.Tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slowdown on link 0: contenders split across links %.3f, both on link 0 %.3f\n",
		split, same)

	// Verify against the simulated three-machine platform: a 1000×512w
	// burst on link 0 with the contenders split.
	k := contention.NewKernel()
	defer k.Close()
	legs, err := contention.NewSunMultiParagon(k, params, 2)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := contention.SpawnAlternator(legs[0], contention.AlternatorSpec{
		Name: "contA", CommFraction: 0.76, MsgWords: 200, Period: 0.1, Phase: 0.017,
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := contention.SpawnAlternator(legs[1], contention.AlternatorSpec{
		Name: "contB", CommFraction: 0.66, MsgWords: 800, Period: 0.1, Phase: 0.031,
	}); err != nil {
		log.Fatal(err)
	}
	contention.SpawnPingEcho(legs[0], "bench")
	actual := -1.0
	k.Spawn("bench", func(p *contention.Proc) {
		p.Delay(0.5)
		var err error
		actual, err = contention.PingPongBurst(p, legs[0], "bench", 1000, 512)
		if err != nil {
			log.Fatal(err)
		}
		k.Stop()
	})
	k.Run()

	pred, err := contention.NewPredictor(cal)
	if err != nil {
		log.Fatal(err)
	}
	dcomm, err := pred.DedicatedComm(contention.HostToBack,
		[]contention.DataSet{{N: 1000, Words: 512}})
	if err != nil {
		log.Fatal(err)
	}
	predicted := dcomm * split
	fmt.Printf("burst on link 0: predicted %.3fs, actual (simulated) %.3fs, error %.1f%%\n",
		predicted, actual, 100*math.Abs(predicted-actual)/actual)

	// Phased prediction across a job-mix change: contender B migrates
	// from link 1 to link 0 halfway through a long transfer.
	phases := []contention.Phase{
		{Duration: 5, Contenders: []contention.Contender{a}}, // B elsewhere: CPU-only effect folded into calibration error
		{Contenders: []contention.Contender{a, b}},           // B joins link 0
	}
	phased, err := contention.PredictCommPhased(dcomm*3, phases, cal.Tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phased prediction for a 3× longer transfer across the mix change: %.3fs\n", phased)
}
