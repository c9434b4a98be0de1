package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"contention/internal/obs"
	"contention/internal/serve"
)

// hopRecord is what one forwarded predict carried across the hop.
type hopRecord struct {
	header http.Header
	body   []byte
}

// recordingMember is a remote member that records every predict it
// receives and answers a fixed body.
type recordingMember struct {
	ts   *httptest.Server
	mu   sync.Mutex
	seen []hopRecord
}

func newRecordingMember(t *testing.T) *recordingMember {
	t.Helper()
	rm := &recordingMember{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		rm.mu.Lock()
		rm.seen = append(rm.seen, hopRecord{header: r.Header.Clone(), body: b})
		rm.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"value":1.5}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ok","trust":"fresh"}`)
	})
	rm.ts = httptest.NewServer(mux)
	t.Cleanup(rm.ts.Close)
	return rm
}

func (rm *recordingMember) last(t *testing.T) hopRecord {
	t.Helper()
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if len(rm.seen) == 0 {
		t.Fatal("member received no predict")
	}
	return rm.seen[len(rm.seen)-1]
}

// newRemoteOnlyCluster starts a cluster whose only member is the remote
// daemon at addr, with heartbeats out of the way.
func newRemoteOnlyCluster(t *testing.T, addr string, timeout time.Duration) *httptest.Server {
	t.Helper()
	c, err := New(Config{Timeout: timeout, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddRemote(addr, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return front
}

// TestForwardCarriesTheHop pins what crosses the router's hop: the body
// bytes verbatim, the request wire's Content-Type, the client's request
// id, the trace header of a traced request, and the remaining deadline
// in (0, Timeout] milliseconds — and no Accept-Encoding, since no
// replica compresses.
func TestForwardCarriesTheHop(t *testing.T) {
	const timeout = 3 * time.Second
	member := newRecordingMember(t)
	front := newRemoteOnlyCluster(t, strings.TrimPrefix(member.ts.URL, "http://"), timeout)

	d := 2.5
	req := &serve.Request{Kind: "comp", Dcomp: &d,
		Contenders: []serve.ContenderSpec{{CommFraction: 0.3, MsgWords: 400}}}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := serve.AppendBinaryRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewRootContext(true).String()
	for _, tc := range []struct {
		name, contentType, rid, trace string
		body                          []byte
	}{
		{"json", "application/json", "", "", jsonBody},
		{"json-rid-traced", "application/json", "rid-json-1", trace, jsonBody},
		{"binary", serve.ContentTypeBinary, "", "", binBody},
		{"binary-rid-traced", serve.ContentTypeBinary, "rid-bin-2", trace, binBody},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hr, err := http.NewRequest(http.MethodPost, front.URL+"/v1/predict", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			hr.Header.Set("Content-Type", tc.contentType)
			if tc.rid != "" {
				hr.Header.Set(serve.RequestIDHeader, tc.rid)
			}
			if tc.trace != "" {
				hr.Header.Set(serve.TraceHeader, tc.trace)
			}
			resp, err := front.Client().Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}

			got := member.last(t)
			if !bytes.Equal(got.body, tc.body) {
				t.Fatalf("body arrived as %q, sent %q", got.body, tc.body)
			}
			if ct := got.header.Values("Content-Type"); len(ct) != 1 || ct[0] != tc.contentType {
				t.Fatalf("Content-Type arrived as %q, want %q", ct, tc.contentType)
			}
			if rid := got.header.Get(serve.RequestIDHeader); rid != tc.rid {
				t.Fatalf("X-Request-Id arrived as %q, want %q", rid, tc.rid)
			}
			fwd := got.header.Get(serve.TraceHeader)
			if tc.trace == "" && fwd != "" {
				t.Fatalf("untraced request forwarded trace header %q", fwd)
			}
			if tc.trace != "" {
				sent, _ := obs.ParseTraceContext(tc.trace)
				tcx, ok := obs.ParseTraceContext(fwd)
				if !ok || tcx.TraceID != sent.TraceID || !tcx.Sampled {
					t.Fatalf("trace header arrived as %q, want trace %s sampled", fwd, tc.trace)
				}
			}
			ms, err := strconv.ParseInt(got.header.Get(serve.DeadlineHeader), 10, 64)
			if err != nil || ms <= 0 || ms > timeout.Milliseconds() {
				t.Fatalf("deadline header %q, want an integer in (0, %d]", got.header.Get(serve.DeadlineHeader), timeout.Milliseconds())
			}
			if ae, ok := got.header["Accept-Encoding"]; ok {
				t.Fatalf("router offered Accept-Encoding %q", ae)
			}
		})
	}
}

// TestForwardDeadMemberError pins the 503 a dead member leaves behind:
// ErrNoReplica, then the error text http.Client.Do gives for the post.
func TestForwardDeadMemberError(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()
	front := newRemoteOnlyCluster(t, addr, time.Second)

	resp, err := front.Client().Post(front.URL+"/v1/predict", "application/json", strings.NewReader(predictBody(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != serve.RetryAfterSeconds {
		t.Fatalf("dead member: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	want := ErrNoReplica.Error() + `: Post "http://` + addr + `/v1/predict": `
	if !strings.HasPrefix(env.Error, want) {
		t.Fatalf("dead member error %q, want prefix %q", env.Error, want)
	}
}

// TestReadLimitedMatchesReadAll holds readLimited to the io.ReadAll over
// io.LimitReader it replaces, with and without a declared length, below,
// at and past the limit, and on a reader that fails.
func TestReadLimitedMatchesReadAll(t *testing.T) {
	const limit = 64
	boom := errors.New("boom")
	for _, n := range []int{0, 1, 63, 64, 65, 700} {
		src := bytes.Repeat([]byte{'x'}, n)
		for _, size := range []int64{-1, int64(n), 3} {
			want, werr := io.ReadAll(io.LimitReader(bytes.NewReader(src), limit))
			got, gerr := readLimited(bytes.NewReader(src), size, limit)
			if !bytes.Equal(got, want) || gerr != werr {
				t.Fatalf("n=%d size=%d: got %d bytes, %v; want %d bytes, %v", n, size, len(got), gerr, len(want), werr)
			}
		}
		failing := io.MultiReader(bytes.NewReader(src[:n/2]), iotest.ErrReader(boom))
		got, err := readLimited(failing, -1, 1<<20)
		if !errors.Is(err, boom) || len(got) != n/2 {
			t.Fatalf("n=%d failing reader: %d bytes, %v", n, len(got), err)
		}
	}
}

// TestClassifyRequestDeadlineForgiven: a replica that stalls past the
// request Timeout but inside PerTryTimeout answers 504, and its breaker
// records nothing — the request ran out of time, the replica did
// nothing wrong.
func TestClassifyRequestDeadlineForgiven(t *testing.T) {
	c, fl, front := newTestCluster(t, 1, func(cfg *Config) {
		cfg.Timeout = 100 * time.Millisecond
		cfg.PerTryTimeout = 2 * time.Second
		cfg.ProbeInterval = time.Hour // only request outcomes feed the breaker
		cfg.Breaker = BreakerConfig{MinVolume: 1, TripRate: 0.01, Cooldown: time.Hour}
	})
	fl.current(0).stallMS.Store(500)
	start := time.Now()
	code, out := postPredict(t, front, predictBody(1))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stall past Timeout: status %d (%v), want 504", code, out)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("504 took %v, want about Timeout", el)
	}
	if vol, _ := c.memberByID(0).breaker.Stats(); vol != 0 {
		t.Fatalf("breaker volume %d after a spent request deadline, want 0 (forgiven)", vol)
	}
}

// TestClassifyPerTryTimeoutCounts: a primary that stalls past
// PerTryTimeout but inside Timeout is the replica's fault — one failure
// on its breaker — and the other replica answers the retry.
func TestClassifyPerTryTimeoutCounts(t *testing.T) {
	c, fl, front := newTestCluster(t, 2, func(cfg *Config) {
		cfg.Timeout = 5 * time.Second
		cfg.PerTryTimeout = 100 * time.Millisecond
		cfg.ProbeInterval = time.Hour
		cfg.Breaker = BreakerConfig{MinVolume: 100, Cooldown: time.Hour}
	})
	body := predictBody(3)
	if code, _ := postPredict(t, front, body); code != http.StatusOK {
		t.Fatal("warmup predict failed")
	}
	primary := 0
	if fl.current(1).hits.Load() > 0 {
		primary = 1
	}
	vol0, _ := c.memberByID(primary).breaker.Stats()
	fl.current(primary).stallMS.Store(1000)

	code, out := postPredict(t, front, body)
	if code != http.StatusOK {
		t.Fatalf("per-try timeout on the primary: status %d (%v), want 200 from the other replica", code, out)
	}
	if got := int(out["replica"].(float64)); got == primary {
		t.Fatalf("answer came from the stalled primary %d", got)
	}
	vol, rate := c.memberByID(primary).breaker.Stats()
	if vol != vol0+1 || rate*float64(vol) < 0.5 || rate*float64(vol) > 1.5 {
		t.Fatalf("primary breaker: volume %d (was %d), fail rate %.2f — want exactly one recorded failure", vol, vol0, rate)
	}
}

// TestHedgeLoserCancelledByHandlerReturn: a hedge loser is cancelled no
// later than the handler's return, even when the caller's context never
// ends — the bench ladder calls the handler directly with
// context.Background.
func TestHedgeLoserCancelledByHandlerReturn(t *testing.T) {
	c, fl, _ := newTestCluster(t, 2, func(cfg *Config) {
		cfg.HedgeDelay = 20 * time.Millisecond
		cfg.PerTryTimeout = 10 * time.Second
		cfg.Timeout = 20 * time.Second
	})
	h := c.Handler()
	serveOnce := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody(5)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := serveOnce(); code != http.StatusOK {
		t.Fatalf("warmup predict = %d", code)
	}
	primary := 0
	if fl.current(1).hits.Load() > 0 {
		primary = 1
	}
	// The fake never reads the body, so its server notices the cancel
	// only when the stall ends; the stall just has to outlast the check.
	fl.current(primary).stallMS.Store(2500)
	if code := serveOnce(); code != http.StatusOK {
		t.Fatalf("hedged predict = %d", code)
	}
	done := make(chan struct{})
	go func() {
		c.bg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("hedge loser still running 1s after the handler returned")
	}
}
