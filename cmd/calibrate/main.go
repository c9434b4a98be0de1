// Command calibrate runs the system test suite against the simulated
// platforms and prints the resulting model parameters: the piecewise
// (α, β) communication fits per direction, the discovered threshold,
// and the three delay tables.
//
// Usage:
//
//	calibrate                 # Sun/Paragon 1-HOP + Sun/CM2
//	calibrate -mode 2hops
//	calibrate -contenders 6 -burst 500
//	calibrate -save cal.json  # persist a checksummed envelope atomically
//	calibrate -check cal.json # verify a stored calibration's invariants
package main

import (
	"flag"
	"fmt"
	"os"

	"contention/internal/calibrate"
	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/obs"
	"contention/internal/platform"
)

func main() {
	mode := flag.String("mode", "1hop", "Sun/Paragon communication mode: 1hop or 2hops")
	burst := flag.Int("burst", 200, "messages per ping-pong burst")
	contenders := flag.Int("contenders", 4, "delay-table depth (max contenders)")
	asJSON := flag.Bool("json", false, "emit the calibration as JSON (loadable with -check and contentiond -cal)")
	check := flag.String("check", "", "verify a stored calibration file (integrity + invariants) and exit")
	save := flag.String("save", "", "write the calibration atomically to FILE as a checksummed envelope")
	repeats := flag.Int("repeats", 1, "measurements per calibration point (robust aggregation when > 1)")
	flag.Parse()
	defer obs.ExitOnPanic()

	if *check != "" {
		os.Exit(runCheck(*check))
	}
	if *burst < 1 {
		fmt.Fprintf(os.Stderr, "-burst %d must be ≥ 1\n", *burst)
		os.Exit(2)
	}
	if *contenders < 1 {
		fmt.Fprintf(os.Stderr, "-contenders %d must be ≥ 1\n", *contenders)
		os.Exit(2)
	}

	var hop platform.HopMode
	switch *mode {
	case "1hop":
		hop = platform.OneHop
	case "2hops":
		hop = platform.TwoHops
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want 1hop or 2hops)\n", *mode)
		os.Exit(2)
	}

	if *repeats < 1 {
		fmt.Fprintf(os.Stderr, "-repeats %d must be ≥ 1\n", *repeats)
		os.Exit(2)
	}

	params := platform.DefaultParagonParams(hop)
	opts := calibrate.DefaultOptions(params)
	opts.BurstCount = *burst
	opts.MaxContenders = *contenders
	opts.Repeats = *repeats

	cal, conf, err := calibrate.RunRobust(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibration failed:", err)
		os.Exit(1)
	}

	if *save != "" {
		meta := caltrust.Meta{Note: fmt.Sprintf("calibrate -mode %s -burst %d -contenders %d -repeats %d",
			*mode, *burst, *contenders, *repeats)}
		if err := caltrust.WriteFile(*save, cal, meta); err != nil {
			fmt.Fprintln(os.Stderr, "saving calibration:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (schema %d, checksummed)\n", *save, caltrust.SchemaVersion)
		return
	}

	if *asJSON {
		if err := cal.Save(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "encoding calibration:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("platform: %s\n\n", cal.Platform)
	printModel("sun→paragon", cal.ToBack)
	printModel("paragon→sun", cal.ToHost)

	fmt.Println("delay tables (index i = number of contenders):")
	printTable("  delay^i_comp (computing apps → communication)", cal.Tables.CompOnComm)
	printTable("  delay^i_comm (communicating apps → communication)", cal.Tables.CommOnComm)
	for _, j := range cal.Tables.JGrid() {
		printTable(fmt.Sprintf("  delay^{i,j=%d}_comm (communicating apps → computation)", j),
			cal.Tables.CommOnComp[j])
	}

	if conf.Repeats > 1 {
		fmt.Printf("\nrobust estimation: %d repeats/point, %d outliers rejected, %g%% CIs\n",
			conf.Repeats, conf.OutliersRejected, 100*conf.Level)
		fmt.Printf("  sun→paragon small piece: α ∈ [%.6g, %.6g]  β ∈ [%.6g, %.6g]\n",
			conf.ToBack.Small.Alpha.Lo, conf.ToBack.Small.Alpha.Hi,
			conf.ToBack.Small.Beta.Lo, conf.ToBack.Small.Beta.Hi)
	}

	cm2, err := calibrate.CalibrateCM2(calibrate.DefaultCM2Options(platform.DefaultCM2Params()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "CM2 calibration failed:", err)
		os.Exit(1)
	}
	fmt.Println("\nsun/cm2 transfer model:")
	fmt.Printf("  α = %.6gs  β = %.6g words/s\n", cm2.Small.Alpha, cm2.Small.Beta)
}

func printModel(name string, m core.CommModel) {
	fmt.Printf("%s (threshold %d words):\n", name, m.Threshold)
	fmt.Printf("  size ≤ threshold: α = %.6gs  β = %.6g words/s\n", m.Small.Alpha, m.Small.Beta)
	fmt.Printf("  size > threshold: α = %.6gs  β = %.6g words/s\n\n", m.Large.Alpha, m.Large.Beta)
}

func printTable(label string, xs []float64) {
	fmt.Printf("%s:", label)
	for i, v := range xs {
		fmt.Printf(" i=%d:%.3f", i+1, v)
	}
	fmt.Println()
}

// runCheck loads a stored calibration, verifying envelope integrity
// (schema, checksum) and the trust layer's physical invariants, and
// reports PASS/FAIL. Returns the process exit code.
func runCheck(path string) int {
	cal, env, err := caltrust.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		return 1
	}
	report := caltrust.Validate(cal, caltrust.DefaultCheckConfig())
	for _, v := range report.Violations {
		fmt.Fprintln(os.Stderr, " ", v.String())
	}
	if !report.OK() {
		fmt.Fprintf(os.Stderr, "FAIL: %s: calibration violates model invariants\n", path)
		return 1
	}
	note := ""
	if env.Note != "" {
		note = fmt.Sprintf(" (%s)", env.Note)
	}
	fmt.Printf("OK: %s: schema %d, checksum verified, invariants hold%s\n", path, env.Schema, note)
	return 0
}
