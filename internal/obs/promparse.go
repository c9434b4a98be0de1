package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsePrometheusText parses the Prometheus text exposition format back
// into a Snapshot — the inverse of Snapshot.WritePrometheus, used by
// the fleet scraper to ingest member /metrics pages. It understands the
// subset our exposition emits (and any Prometheus 0.0.4 page built from
// counters, gauges, and classic histograms whose label values avoid
// embedded `,` and `"`): `# HELP` / `# TYPE` headers, scalar series,
// and `_bucket`/`_sum`/`_count` histogram triples, which it reassembles
// into cumulative bucket lists. As in the format, a `# TYPE` header
// types the samples that follow it up to the next one; a sample outside
// its family's group, or of an unknown type, is a gauge. A series that
// repeats is one series, its last value kept. Round-tripping a snapshot
// through WritePrometheus and back is lossless (pinned by test), and so
// is re-encoding whatever this accepts (fuzzed).
func ParsePrometheusText(text string) (Snapshot, error) {
	type hist struct {
		buckets map[float64]int64
		sum     float64
		count   int64
	}
	var family, kind string // what the last # TYPE header opened
	helps := map[string]string{}
	scalars := map[string]MetricSnapshot{}
	hists := map[string]*hist{} // full series name (base+labels) -> partial histogram
	var order []string          // series names, each once, in first-seen order
	listed := map[string]bool{}
	list := func(series string) {
		if !listed[series] {
			listed[series] = true
			order = append(order, series)
		}
	}

	histFor := func(series string) *hist {
		h, ok := hists[series]
		if !ok {
			h = &hist{buckets: map[float64]int64{}}
			hists[series] = h
			list(series)
		}
		return h
	}

	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) == 4 {
				switch fields[1] {
				case "TYPE":
					family, kind = fields[2], strings.TrimSpace(fields[3])
				case "HELP":
					helps[fields[2]] = fields[3]
				}
			}
			continue
		}
		// Sample line: name{labels} value — the value is everything
		// after the last space, the series name everything before.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return Snapshot{}, fmt.Errorf("obs: metrics line %d: no value in %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return Snapshot{}, fmt.Errorf("obs: metrics line %d: value %q: %v", ln+1, valStr, err)
		}
		base, labels := splitSeries(series)
		if kind == "histogram" {
			switch base {
			case family + "_bucket":
				rest, le, ok := extractLe(labels)
				if !ok {
					return Snapshot{}, fmt.Errorf("obs: metrics line %d: bucket without le label: %q", ln+1, line)
				}
				histFor(family + rest).buckets[le] += int64(val)
				continue
			case family + "_sum":
				histFor(family + labels).sum = val
				continue
			case family + "_count":
				histFor(family + labels).count = int64(val)
				continue
			}
		}
		m := MetricSnapshot{Name: series, Kind: "gauge", Value: val}
		if base == family && (kind == "counter" || kind == "gauge") {
			m.Kind = kind
		}
		scalars[series] = m
		list(series)
	}

	snap := Snapshot{}
	for _, series := range order {
		base, _ := splitSeries(series)
		if h, ok := hists[series]; ok {
			m := MetricSnapshot{Name: series, Kind: "histogram", Help: helps[base], Count: h.count, Sum: h.sum}
			bounds := make([]float64, 0, len(h.buckets))
			for b := range h.buckets {
				bounds = append(bounds, b)
			}
			sort.Float64s(bounds)
			for _, b := range bounds {
				m.Buckets = append(m.Buckets, BucketSnapshot{UpperBound: b, Count: h.buckets[b]})
			}
			snap.Metrics = append(snap.Metrics, m)
			continue
		}
		m := scalars[series]
		m.Help = helps[base]
		snap.Metrics = append(snap.Metrics, m)
	}
	sort.Slice(snap.Metrics, func(i, j int) bool { return snap.Metrics[i].Name < snap.Metrics[j].Name })
	return snap, nil
}

// splitSeries splits `name{labels}` into base name and the `{...}`
// suffix ("" when unlabelled).
func splitSeries(series string) (base, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// extractLe removes the le="..." pair from a label suffix, returning
// the remaining suffix (normalized; "" when le was the only label) and
// the parsed bound.
func extractLe(labels string) (rest string, le float64, ok bool) {
	if len(labels) < 2 || labels[0] != '{' || labels[len(labels)-1] != '}' {
		return "", 0, false
	}
	inner := labels[1 : len(labels)-1]
	parts := strings.Split(inner, ",")
	kept := parts[:0]
	found := false
	for _, p := range parts {
		if v, isLe := strings.CutPrefix(p, `le="`); isLe && strings.HasSuffix(v, `"`) {
			bound := strings.TrimSuffix(v, `"`)
			if bound == "+Inf" {
				le, found = math.Inf(1), true
				continue
			}
			f, err := strconv.ParseFloat(bound, 64)
			if err != nil {
				return "", 0, false
			}
			le, found = f, true
			continue
		}
		kept = append(kept, p)
	}
	if !found {
		return "", 0, false
	}
	if len(kept) == 0 {
		return "", le, true
	}
	return "{" + strings.Join(kept, ",") + "}", le, true
}

// MergeSnapshots sums same-named series across several snapshots into
// one, prefixing every series name with prefix — the fleet aggregation
// rule. Counters, gauges, and histogram sums/counts add; histogram
// buckets merge per upper bound (members share bucket layouts since
// they run the same binary, but a union is taken if they differ). A
// series whose kind conflicts across snapshots keeps the first kind and
// skips the conflicting later values.
func MergeSnapshots(prefix string, snaps ...Snapshot) Snapshot {
	type acc struct {
		m       MetricSnapshot
		buckets map[float64]int64
	}
	byName := map[string]*acc{}
	var order []string
	for _, s := range snaps {
		for _, m := range s.Metrics {
			name := prefix + m.Name
			a, ok := byName[name]
			if !ok {
				a = &acc{m: MetricSnapshot{Name: name, Kind: m.Kind, Help: m.Help}}
				if m.Kind == "histogram" {
					a.buckets = map[float64]int64{}
				}
				byName[name] = a
				order = append(order, name)
			}
			if a.m.Kind != m.Kind {
				continue
			}
			switch m.Kind {
			case "histogram":
				a.m.Count += m.Count
				a.m.Sum += m.Sum
				for _, b := range m.Buckets {
					a.buckets[b.UpperBound] += b.Count
				}
			default:
				a.m.Value += m.Value
			}
		}
	}
	out := Snapshot{Metrics: make([]MetricSnapshot, 0, len(order))}
	for _, name := range order {
		a := byName[name]
		if a.buckets != nil {
			bounds := make([]float64, 0, len(a.buckets))
			for b := range a.buckets {
				bounds = append(bounds, b)
			}
			sort.Float64s(bounds)
			for _, b := range bounds {
				a.m.Buckets = append(a.m.Buckets, BucketSnapshot{UpperBound: b, Count: a.buckets[b]})
			}
		}
		out.Metrics = append(out.Metrics, a.m)
	}
	sort.Slice(out.Metrics, func(i, j int) bool { return out.Metrics[i].Name < out.Metrics[j].Name })
	return out
}
