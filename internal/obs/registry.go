package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing integer. All methods are
// goroutine-safe; Add and Inc are allocation-free and no-ops while
// telemetry is disabled.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by n; negative or zero n is ignored (counters only go
// up).
func (c *Counter) Add(n int64) {
	if n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 high-water mark (the deepest batcher queue, the
// most tasks in flight). Goroutine-safe; recording is a no-op while
// telemetry is disabled.
type Gauge struct {
	bits atomic.Uint64
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark in one call.
func (g *Gauge) SetMax(v float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (cumulative at
// snapshot time, like Prometheus `le` buckets). Observe is
// allocation-free and a no-op while telemetry is disabled.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefaultSecondsBuckets covers microseconds through minutes — suitable
// for both simulated bursts and wall-clock experiment runs — in a 1-2-5
// series from 1 µs to 100 s, topped by 120 s. Three bounds a decade keep
// an interpolated quantile within a factor of 2.5 of the truth: a
// stage that takes 1.35 ms reads between 1 and 2 ms, not somewhere in
// 1–10 ms.
func DefaultSecondsBuckets() []float64 {
	return []float64{
		1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
		1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
		1, 2, 5, 10, 20, 50, 100, 120,
	}
}

// DefaultSizeBuckets covers batch/queue sizes from 1 to 4096.
func DefaultSizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}
}

// metric is one registered series.
type metric struct {
	name string // full series name, possibly with a {label="value"} suffix
	help string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of metrics. Registration is
// get-or-create: asking twice for the same name and kind returns the
// same handle, so packages may register at use sites without
// coordinating init order. Asking for an existing name with a different
// kind panics — that is a programming error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// lookup returns the series, creating it via mk on first sight.
func (r *Registry) lookup(name, help string, kind Kind, mk func() *metric) *metric {
	if err := checkName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %v, requested %v", name, m.kind, kind))
		}
		return m
	}
	m := mk()
	m.name, m.help, m.kind = name, help, kind
	r.metrics[name] = m
	return m
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, KindCounter, func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, KindGauge, func() *metric { return &metric{g: &Gauge{}} }).g
}

// Histogram registers (or fetches) a histogram with the given ascending
// upper bucket bounds (a +Inf overflow bucket is implicit). bounds must
// be non-empty, finite, and strictly ascending; on a repeated
// registration the original bounds win.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram %q bound %v not finite", name, b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending at %v", name, b))
		}
	}
	return r.lookup(name, help, KindHistogram, func() *metric {
		own := append([]float64(nil), bounds...)
		return &metric{h: &Histogram{bounds: own, buckets: make([]atomic.Int64, len(own)+1)}}
	}).h
}

// checkName validates a series name: a Prometheus-style identifier with
// an optional single {label="value"} suffix (labels are baked into the
// series name; exposition prints them verbatim).
func checkName(name string) error {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i:]
		if !strings.HasSuffix(labels, "\"}") || strings.Count(labels, "{") != 1 {
			return fmt.Errorf("obs: malformed label suffix in %q", name)
		}
	}
	if base == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, ch := range base {
		ok := ch == '_' || ch == ':' || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(i > 0 && ch >= '0' && ch <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", name)
		}
	}
	return nil
}

// Label renders a labelled series name: Label("x_total", "kind", "drop")
// is `x_total{kind="drop"}`. Values are escaped per the Prometheus text
// format.
func Label(base, key, value string) string {
	return base + "{" + key + "=\"" + escapeLabelValue(value) + "\"}"
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, ch := range v {
		switch ch {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(ch)
		}
	}
	return b.String()
}

// CounterVec is a family of counters sharing one base name and label
// key, one series per label value. Handles are memoized: With is cheap
// after first use, and the family shows up in exposition as
// `base{label="value"}` series.
type CounterVec struct {
	r     *Registry
	base  string
	help  string
	label string

	mu sync.Mutex
	by map[string]*Counter
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(base, help, label string) *CounterVec {
	return &CounterVec{r: r, base: base, help: help, label: label, by: map[string]*Counter{}}
}

// With returns the counter for one label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.by[value]; ok {
		return c
	}
	c := v.r.Counter(Label(v.base, v.label, value), v.help)
	v.by[value] = c
	return c
}

// HistogramVec is the histogram analogue of CounterVec: one histogram
// per label value, all sharing one base name and bucket layout.
type HistogramVec struct {
	r      *Registry
	base   string
	help   string
	label  string
	bounds []float64

	mu sync.Mutex
	by map[string]*Histogram
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(base, help, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{r: r, base: base, help: help, label: label,
		bounds: append([]float64(nil), bounds...), by: map[string]*Histogram{}}
}

// With returns the histogram for one label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.by[value]; ok {
		return h
	}
	h := v.r.Histogram(Label(v.base, v.label, value), v.help, v.bounds)
	v.by[value] = h
	return h
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	UpperBound float64 `json:"-"`
	Count      int64   `json:"count"`
}

// bucketJSON is the wire form: `le` as a Prometheus-style string, so
// the +Inf overflow bucket survives JSON (which has no infinities).
type bucketJSON struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(bucketJSON{Le: le, Count: b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Le == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(w.Le, 64)
		if err != nil {
			return fmt.Errorf("obs: bucket bound %q: %w", w.Le, err)
		}
		b.UpperBound = v
	}
	b.Count = w.Count
	return nil
}

// MetricSnapshot is one series frozen at snapshot time.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Kind    string           `json:"kind"`
	Help    string           `json:"help,omitempty"`
	Value   float64          `json:"value,omitempty"`
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, sorted by series
// name. It is plain data: safe to marshal, diff, or embed in a run
// manifest.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot freezes every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	snap := Snapshot{Metrics: make([]MetricSnapshot, 0, len(ms))}
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Kind: m.kind.String(), Help: m.help}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Value = m.g.Value()
		case KindHistogram:
			s.Count = m.h.Count()
			s.Sum = m.h.Sum()
			cum := int64(0)
			for i, b := range m.h.bounds {
				cum += m.h.buckets[i].Load()
				s.Buckets = append(s.Buckets, BucketSnapshot{UpperBound: b, Count: cum})
			}
			cum += m.h.buckets[len(m.h.bounds)].Load()
			s.Buckets = append(s.Buckets, BucketSnapshot{UpperBound: math.Inf(1), Count: cum})
		}
		snap.Metrics = append(snap.Metrics, s)
	}
	return snap
}

// Value returns a series' value by exact name (counter count or gauge
// level; histogram observation count) and whether it exists.
func (s Snapshot) Value(name string) (float64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			if m.Kind == KindHistogram.String() {
				return float64(m.Count), true
			}
			return m.Value, true
		}
	}
	return 0, false
}

// Counter returns a counter's value by name, 0 when absent.
func (s Snapshot) Counter(name string) int64 {
	v, _ := s.Value(name)
	return int64(v)
}

// Gauge returns a gauge's value by name, 0 when absent.
func (s Snapshot) Gauge(name string) float64 {
	v, _ := s.Value(name)
	return v
}

// Labelled collects the values of every series of a labelled family,
// keyed by label value: Labelled("faults_injected_total") returns
// {"link-drop": 3, ...}.
func (s Snapshot) Labelled(base string) map[string]float64 {
	out := map[string]float64{}
	prefix := base + "{"
	for _, m := range s.Metrics {
		if !strings.HasPrefix(m.Name, prefix) {
			continue
		}
		inner := m.Name[len(prefix) : len(m.Name)-1] // key="value"
		if i := strings.IndexByte(inner, '"'); i >= 0 && strings.HasSuffix(inner, "\"") {
			out[inner[i+1:len(inner)-1]] = m.Value
		}
	}
	return out
}

// Reset zeroes every registered series. Intended for tests and for
// process-wide registries reused across runs.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		switch m.kind {
		case KindCounter:
			m.c.v.Store(0)
		case KindGauge:
			m.g.bits.Store(0)
		case KindHistogram:
			for i := range m.h.buckets {
				m.h.buckets[i].Store(0)
			}
			m.h.count.Store(0)
			m.h.sumBits.Store(0)
		}
	}
}
