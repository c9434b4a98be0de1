package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): series sorted by name, a
// `# HELP` / `# TYPE` header before each run of one base family and
// kind, histograms expanded into cumulative `_bucket{le=...}` series
// plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders a frozen snapshot in the same text format —
// the fleet scraper writes merged member snapshots through this path.
func (snap Snapshot) WritePrometheus(w io.Writer) error {
	lastBase, lastKind := "", ""
	for _, m := range snap.Metrics {
		base := m.Name
		labels := ""
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base, labels = base[:i], base[i:]
		}
		// A header opens each group of samples: a new family, or the
		// same base name carrying series of another kind.
		if base != lastBase || m.Kind != lastKind {
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, strings.ReplaceAll(m.Help, "\n", " ")); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, m.Kind); err != nil {
				return err
			}
			lastBase, lastKind = base, m.Kind
		}
		switch m.Kind {
		case KindHistogram.String():
			for _, b := range m.Buckets {
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatValue(b.UpperBound)
				}
				series := base + "_bucket" + bucketLabels(labels, le)
				if _, err := fmt.Fprintf(w, "%s %d\n", series, b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatValue(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", base, labels, formatValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// PrometheusText is WritePrometheus into a string.
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	// strings.Builder never errors.
	_ = r.WritePrometheus(&b)
	return b.String()
}

// bucketLabels merges an existing {label="value"} suffix with the le
// bucket label.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}

// formatValue renders a float the way Prometheus clients do: integral
// values without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry: the Prometheus text format at the
// handler's root, or with ?format=json the Snapshot as JSON — the form
// the fleet scrape decodes (DecodeSnapshot).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			body, err := json.Marshal(r.Snapshot())
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

var expvarOnce sync.Once

// PublishExpvar publishes the default registry's snapshot under the
// expvar name "contention" (alongside the runtime's memstats/cmdline),
// so any /debug/vars scraper sees the same numbers as /metrics.
// Idempotent; expvar forbids re-publishing a name.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("contention", expvar.Func(func() any { return std.Snapshot() }))
	})
}

// ListenAndServe starts an HTTP exposition endpoint for the default
// registry on addr: /metrics (Prometheus text, or JSON with
// ?format=json) and /debug/vars (expvar JSON, including the published
// registry snapshot). It returns the bound address (useful with a ":0"
// port) and never blocks; the server lives until the process exits.
// Errors binding the listener are returned synchronously.
func ListenAndServe(addr string) (string, error) {
	PublishExpvar()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", std.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
