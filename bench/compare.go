package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the untraced runs of a -record file, grouped by
// workload.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the driver's spread measure).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// compare prints, per workload × end-to-end metric, both files' medians
// over their runs, how much worse B is than A as a share of A, and the
// bound; with four or more runs a side it adds the larger of the two
// spreads (interquartile range over median). It reports whether every
// pairing stayed within its bound.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	within := true
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s %8s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "spread")
	for _, def := range workloads {
		ra, rb := a[def.Name], b[def.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-20s missing from one side (%d runs in A, %d in B)\n", def.Name, len(ra), len(rb))
			within = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict, within = "  BEYOND BOUND", false
			}
			spread := "-"
			if len(va) >= 4 && len(vb) >= 4 {
				spread = fmt.Sprintf("%.1f%%", 100*max(iqrShare(va), iqrShare(vb)))
			}
			fmt.Fprintf(w, "%-20s %-18s %14.5g %14.5g %+8.1f%% %6.0f%% %8s%s\n",
				def.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, spread, verdict)
		}
	}
	return within, nil
}

func values(rs []result, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
