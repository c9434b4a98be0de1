package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DecodeSnapshot reads the JSON form of a Snapshot that another process
// served (Registry.Handler with ?format=json) — the fleet scrape's
// input — and validates it before anything merges it: every series
// must be a counter, gauge or histogram under a name checkName accepts,
// and a histogram's bucket bounds must ascend while its cumulative
// counts, never negative, do not decrease.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("obs: metrics snapshot: %w", err)
	}
	if err := snap.validate(); err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

// validate holds a decoded snapshot to the invariants a registry's own
// snapshot has by construction.
func (s Snapshot) validate() error {
	for _, m := range s.Metrics {
		if err := checkName(m.Name); err != nil {
			return err
		}
		switch m.Kind {
		case KindCounter.String(), KindGauge.String():
		case KindHistogram.String():
			for i, b := range m.Buckets {
				if math.IsNaN(b.UpperBound) || i > 0 && b.UpperBound <= m.Buckets[i-1].UpperBound {
					return fmt.Errorf("obs: histogram %q bounds do not ascend", m.Name)
				}
				if b.Count < 0 || i > 0 && b.Count < m.Buckets[i-1].Count {
					return fmt.Errorf("obs: histogram %q cumulative counts decrease", m.Name)
				}
			}
		default:
			return fmt.Errorf("obs: series %q has unknown kind %q", m.Name, m.Kind)
		}
	}
	return nil
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
