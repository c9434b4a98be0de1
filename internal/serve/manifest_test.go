package serve

import (
	"maps"
	"testing"
	"time"

	"contention/internal/obs"
)

// deltaSnapshot is what moved in a registry between two snapshots:
// counters and histogram counts and sums as differences, gauges — high
// water marks, which have no difference — at their later level.
func deltaSnapshot(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Metrics: make([]obs.MetricSnapshot, 0, len(after.Metrics))}
	for _, m := range after.Metrics {
		if b, ok := before.Find(m.Name); ok && m.Kind != "gauge" {
			m.Value -= b.Value
			m.Count -= b.Count
			m.Sum -= b.Sum
			m.Buckets = nil
		}
		d.Metrics = append(d.Metrics, m)
	}
	return d
}

// TestServedRunFillsManifest drives a real Server with telemetry on and
// fills a manifest from what its series moved, so a series serve
// registers under a name the manifest does not read fails here. The
// run: two JSON comp requests answered in one batch, two binary comm
// requests answered in another, then one degraded answer once the
// predictor is marked stale. The batch window never fires on its own
// (an hour on a clock the test does not advance); a group flushes when
// it reaches maxBatch.
func TestServedRunFillsManifest(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })

	pred := newTestPredictor(t)
	_, ts := newTunedServer(t, Config{Pred: pred, Window: time.Hour}, tunedWith(func(tun *tuning) {
		tun.maxBatch, tun.clock = 2, newFakeClock()
	}))
	before := obs.Default().Snapshot()

	cs := []ContenderSpec{{CommFraction: 0.3, MsgWords: 500}}
	pair := func(contentType string, req func(i int) *Request) {
		type answer struct {
			resp Response
			err  error
		}
		answers := make(chan answer, 2)
		for i := 0; i < 2; i++ {
			go func(r *Request) {
				resp, err := tryPostWire(ts, contentType, r)
				answers <- answer{resp, err}
			}(req(i))
		}
		for i := 0; i < 2; i++ {
			if a := <-answers; a.err != nil {
				t.Errorf("%s request: %v", contentType, a.err)
			} else if a.resp.Batch != 2 {
				t.Errorf("%s answer in a batch of %d, want 2", contentType, a.resp.Batch)
			}
		}
	}
	pair("application/json", func(i int) *Request {
		d := float64(i + 1)
		return &Request{Kind: "comp", Dcomp: &d, Contenders: cs}
	})
	pair(ContentTypeBinary, func(i int) *Request {
		return &Request{Kind: "comm", Dir: "to_back", Sets: []DataSetSpec{{N: 10 + i, Words: 200}}, Contenders: cs}
	})
	pred.MarkStale("drift detected (test)")
	d := 2.0
	if resp := postWire(t, ts, "application/json", &Request{Kind: "comp", Dcomp: &d, Contenders: cs}); !resp.Degraded {
		t.Fatalf("answer after MarkStale = %+v, want degraded", resp)
	}

	after := obs.Default().Snapshot()
	m := obs.NewManifest("test")
	m.FillFromSnapshot(deltaSnapshot(before, after))
	srv := m.Serving
	if srv == nil {
		t.Fatal("manifest has no serving section")
	}
	if want := map[string]int64{"comm": 2, "comp": 3}; !maps.Equal(srv.Requests, want) {
		t.Errorf("requests by kind = %v, want %v", srv.Requests, want)
	}
	if want := map[string]int64{"ok": 5}; !maps.Equal(srv.Outcomes, want) {
		t.Errorf("outcomes = %v, want %v", srv.Outcomes, want)
	}
	if srv.Batches != 2 || srv.BatchedRequests != 4 || srv.MeanBatchSize != 2 {
		t.Errorf("batches %d, batched requests %d, mean batch size %v; want 2, 4, 2",
			srv.Batches, srv.BatchedRequests, srv.MeanBatchSize)
	}
	if srv.Degraded != 1 {
		t.Errorf("degraded = %d, want 1", srv.Degraded)
	}
	// Each group parked two requests before it flushed; an earlier test
	// may have left the process's high-water mark higher.
	if want := max(int64(before.Gauge(obs.MetricServeQueueDepthMax)), 2); srv.MaxQueueDepth != want {
		t.Errorf("max queue depth = %d, want %d", srv.MaxQueueDepth, want)
	}
}
