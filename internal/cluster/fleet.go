// Fleet-wide metrics aggregation: the balancer periodically scrapes
// every member's /metrics?format=json snapshot, validates it, and
// merges the snapshots under a fleet_* prefix — counters and
// histogram buckets sum across members, so fleet_serve_stage_seconds is
// the whole fleet's latency attribution in one histogram family. The
// merged view is served two ways: appended to the balancer's own
// /metrics exposition, and digested into /debug/fleet — one JSON
// FleetStatus answering "where is the fleet spending its time" with
// members, routing weights, breaker states, suspicion levels, per-stage
// p50/p99, and the cluster's SLO burn when its Config.SLO is set. Each
// member scrape is bounded by the scrape period.
//
// Members that do not expose /metrics (in-process replicas share this
// process's registry; daemons started without -metrics) answer 404 and
// are skipped, not counted as scrape failures.
package cluster

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"contention/internal/obs"
	"contention/internal/serve"
)

// DefaultFleetInterval is the scrape period when NewFleet is given
// zero.
const DefaultFleetInterval = 5 * time.Second

// fleetStages are the stage families surfaced on /debug/fleet: the
// replicas' serve pipeline (merged across members) and the balancer's
// own router pipeline (local registry).
var fleetStages = []struct {
	metric string
	tier   string
}{
	{obs.MetricClusterStageSeconds, "lb"},
	{"fleet_" + obs.MetricServeStageSeconds, "serve"},
}

// Fleet scrapes member metrics and serves the merged view. Build with
// NewFleet, drive with Run (or ScrapeOnce in tests), mount Handler and
// MetricsHandler.
type Fleet struct {
	c        *Cluster
	interval time.Duration
	merged   atomic.Pointer[fleetScrape]
}

// fleetScrape is one completed scrape round.
type fleetScrape struct {
	snap    obs.Snapshot // merged, fleet_*-prefixed
	members int          // members that answered with a metrics page
	at      time.Time
}

// NewFleet returns a scraper over c's members that scrapes every
// interval (DefaultFleetInterval when zero).
func NewFleet(c *Cluster, interval time.Duration) *Fleet {
	if interval <= 0 {
		interval = DefaultFleetInterval
	}
	return &Fleet{c: c, interval: interval}
}

// Run scrapes every interval until stop closes.
func (f *Fleet) Run(stop <-chan struct{}) {
	f.c.every(f.interval, stop, func() { f.ScrapeOnce(context.Background()) })
}

// ScrapeOnce scrapes every up member's /metrics now and swaps in the
// merged result. Returns how many members answered.
func (f *Fleet) ScrapeOnce(ctx context.Context) int {
	start := f.c.tun.clock.Now()
	var snaps []obs.Snapshot
	for _, m := range f.c.memberList() {
		addr := m.currentAddr()
		if addr == "" {
			continue
		}
		snap, ok := f.scrapeMember(ctx, addr)
		if ok {
			snaps = append(snaps, snap)
		}
	}
	merged := obs.MergeSnapshots("fleet_", snaps...)
	f.merged.Store(&fleetScrape{snap: merged, members: len(snaps), at: start})
	return len(snaps)
}

// scrapeMember fetches one member's metrics snapshot. A 404 means the
// member does not export metrics; it, and a member whose page fails to
// fetch or that DecodeSnapshot refuses, is left out of the merge.
func (f *Fleet) scrapeMember(ctx context.Context, addr string) (obs.Snapshot, bool) {
	sctx, release := f.c.bounded(ctx, f.interval)
	defer release()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, "http://"+addr+"/metrics?format=json", nil)
	if err != nil {
		return obs.Snapshot{}, false
	}
	resp, err := f.c.client.Do(req)
	if err != nil {
		return obs.Snapshot{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return obs.Snapshot{}, false
	}
	const maxMetricsBytes = 4 << 20
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxMetricsBytes))
	if err != nil {
		return obs.Snapshot{}, false
	}
	snap, err := obs.DecodeSnapshot(body)
	if err != nil {
		return obs.Snapshot{}, false
	}
	return snap, true
}

// Merged returns the latest merged fleet snapshot (zero before the
// first scrape) and how many members contributed.
func (f *Fleet) Merged() (obs.Snapshot, int) {
	s := f.merged.Load()
	if s == nil {
		return obs.Snapshot{}, 0
	}
	return s.snap, s.members
}

// MetricsHandler serves the balancer's own registry followed by the
// merged fleet_* series — one page, two namespaces, so a scraper of the
// balancer sees the whole fleet.
func (f *Fleet) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default().WritePrometheus(w)
		if s := f.merged.Load(); s != nil {
			_ = s.snap.WritePrometheus(w)
		}
	})
}

// StageLatency is one pipeline stage's fleet-wide latency summary.
type StageLatency struct {
	Tier  string  `json:"tier"` // lb | serve
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

// FleetStatus is the /debug/fleet JSON body.
type FleetStatus struct {
	ReplicasUp     int            `json:"replicas_up"`
	Members        []MemberStatus `json:"members"`
	ScrapedMembers int            `json:"scraped_members"`
	ScrapedAt      string         `json:"scraped_at,omitempty"`
	Stages         []StageLatency `json:"stages,omitempty"`
	SLO            *obs.SLOStatus `json:"slo,omitempty"`
}

// Status assembles the fleet digest from the latest scrape, the local
// registry, and the cluster's member table.
func (f *Fleet) Status() FleetStatus {
	st := FleetStatus{
		ReplicasUp: f.c.UpCount(),
		Members:    f.c.Members(),
	}
	if s := f.merged.Load(); s != nil {
		st.ScrapedMembers = s.members
		st.ScrapedAt = s.at.UTC().Format(time.RFC3339)
	}
	local := obs.Default().Snapshot()
	merged, _ := f.Merged()
	for _, fam := range fleetStages {
		src := local
		if strings.HasPrefix(fam.metric, "fleet_") {
			src = merged
		}
		st.Stages = append(st.Stages, stageLatencies(src, fam.metric, fam.tier)...)
	}
	if slo := f.c.cfg.SLO; slo != nil {
		s := slo.Status(f.c.tun.clock.Now())
		st.SLO = &s
	}
	return st
}

// stageLatencies extracts per-stage quantiles from one histogram family
// in snap, sorted by stage name.
func stageLatencies(snap obs.Snapshot, metric, tier string) []StageLatency {
	prefix := metric + `{stage="`
	var out []StageLatency
	for _, m := range snap.Metrics {
		if !strings.HasPrefix(m.Name, prefix) || !strings.HasSuffix(m.Name, `"}`) {
			continue
		}
		stage := m.Name[len(prefix) : len(m.Name)-2]
		sl := StageLatency{Tier: tier, Stage: stage, Count: m.Count}
		if p50, ok := m.Quantile(0.5); ok {
			sl.P50ms = p50 * 1e3
		}
		if p99, ok := m.Quantile(0.99); ok {
			sl.P99ms = p99 * 1e3
		}
		out = append(out, sl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// Handler serves /debug/fleet: the FleetStatus as JSON, whatever the
// query or Accept header asks for.
func (f *Fleet) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, f.Status())
	})
}
