package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Benchmark-side tracing: spans are recorded in this package, around
// each call into a layer of the program under test, kept in memory, and
// written out when the run ends. Spans inside the program are a later
// change (and internal/obs already has its own).

// maxSpans bounds the recorder's memory and the trace file. Spans past
// it are counted, not kept; the per-layer span metrics use the kept
// ones.
const maxSpans = 60_000

// spanHeader carries "<request id>-<parent span id>" (hex) to the
// benchmark's handler wrapper. It is the header the server echoes as a
// correlation id, so the program under test treats it as opaque.
const spanHeader = "X-Request-Id"

// spanRecord is one finished span. Times are ns since the recorder was
// created.
type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans. A nil *recorder, or one switched off,
// records nothing and costs one branch per call site.
type recorder struct {
	on      atomic.Bool
	base    time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []spanRecord
	dropped int64
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]spanRecord, 0, maxSpans)}
}

// span is an open span; the zero value is "not recording".
type span struct {
	r      *recorder
	id     uint64
	parent uint64
	req    uint64
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root) for request req.
func (r *recorder) begin(parent, req uint64, name string) span {
	if r == nil || !r.on.Load() {
		return span{}
	}
	return span{r: r, id: r.nextID.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end closes the span and records it.
func (s span) end() {
	if s.r == nil {
		return
	}
	end := time.Now()
	rec := spanRecord{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: int64(s.start.Sub(s.r.base)), End: int64(end.Sub(s.r.base)),
	}
	s.r.mu.Lock()
	if len(s.r.spans) < maxSpans {
		s.r.spans = append(s.r.spans, rec)
	} else {
		s.r.dropped++
	}
	s.r.mu.Unlock()
}

// header renders the span as a spanHeader value ("" when not recording).
func (s span) header() string {
	if s.r == nil {
		return ""
	}
	return strconv.FormatUint(s.req, 16) + "-" + strconv.FormatUint(s.id, 16)
}

// wrap returns h with a span named name around every request that
// carries a spanHeader, parented to the client span the header names.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		var sp span
		if v := q.Header.Get(spanHeader); v != "" && r.on.Load() {
			if reqHex, parentHex, ok := strings.Cut(v, "-"); ok {
				req, err1 := strconv.ParseUint(reqHex, 16, 64)
				parent, err2 := strconv.ParseUint(parentHex, 16, 64)
				if err1 == nil && err2 == nil {
					sp = r.begin(parent, req, name)
				}
			}
		}
		h.ServeHTTP(w, q)
		sp.end()
	})
}

// layerTime is the aggregate of one span name.
type layerTime struct {
	Count int64         // spans
	Reqs  int64         // distinct requests that have the span
	Total time.Duration // Σ span durations
	Self  time.Duration // Σ (span − the part of it its children cover)
}

// layers sums the kept spans by name. Children of one span do not
// overlap here (every client is sequential), so the covered part of a
// span is the sum of its children's durations.
func (r *recorder) layers() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[uint64]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]layerTime{}
	reqs := map[string]map[uint64]struct{}{}
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		self := d - children[s.ID]
		if self < 0 {
			self = 0
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += d
		lt.Self += self
		out[s.Name] = lt
		if reqs[s.Name] == nil {
			reqs[s.Name] = map[uint64]struct{}{}
		}
		reqs[s.Name][s.Req] = struct{}{}
	}
	for name, lt := range out {
		lt.Reqs = int64(len(reqs[name]))
		out[name] = lt
	}
	return out
}

// write stores the kept spans as JSON at path.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped\":%d,\"spans\":[\n", workload, seed, r.dropped)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
