package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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
	budget time.Duration
	rid    string
	record []byte
}

// recordingMember is a remote member that records every predict frame
// it receives and answers a fixed record.
type recordingMember struct {
	ts   *httptest.Server
	mu   sync.Mutex
	seen []hopRecord
}

func newRecordingMember(t *testing.T) *recordingMember {
	t.Helper()
	rm := &recordingMember{}
	answer := serve.AppendBinaryResponse(nil, serve.Response{Value: 1.5})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/frames", func(w http.ResponseWriter, r *http.Request) {
		serve.ServeFrames(w, r, func(_ context.Context, f *serve.Frame, dst []byte) (int, []byte) {
			rm.mu.Lock()
			rm.seen = append(rm.seen, hopRecord{budget: f.Budget, rid: string(f.RID), record: bytes.Clone(f.Record)})
			rm.mu.Unlock()
			return http.StatusOK, append(dst, answer...)
		})
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
// daemon at addr, with health probes out of the way.
func newRemoteOnlyCluster(t *testing.T, addr string, timeout time.Duration) *httptest.Server {
	t.Helper()
	c, err := newCluster(Config{}, tunedWith(func(tun *tuning) { tun.timeout, tun.probe = timeout, time.Hour }))
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

// splitTrace takes the trace block out of a binary request record: the
// record as it would be without one, and the context the block carried
// (zero when there is none).
func splitTrace(t *testing.T, rec []byte) ([]byte, obs.TraceContext) {
	t.Helper()
	if len(rec) < 8 || rec[6]&0x80 == 0 {
		return rec, obs.TraceContext{}
	}
	if len(rec) < 8+17 {
		t.Fatalf("record %x: trace block truncated", rec)
	}
	le := binary.LittleEndian
	tc := obs.TraceContext{TraceID: le.Uint64(rec[8:]), SpanID: le.Uint64(rec[16:]), Sampled: rec[24]&1 != 0}
	plain := le.AppendUint32(nil, le.Uint32(rec)-17)
	plain = append(plain, rec[4], rec[5], rec[6]&^0x80, rec[7])
	return append(plain, rec[25:]...), tc
}

// TestForwardCarriesTheHop pins what crosses the router's hop, for a
// JSON and a binary client alike: the request as the binary record the
// binary wire encodes it to, the client's request id, the per-attempt
// trace context of a traced request in the record's trace block (and
// none for an untraced one), and the remaining budget in (0, Timeout].
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
			rec, fwd := splitTrace(t, got.record)
			if !bytes.Equal(rec, binBody) {
				t.Fatalf("record arrived as %x, want %x", rec, binBody)
			}
			if got.rid != tc.rid {
				t.Fatalf("request id arrived as %q, want %q", got.rid, tc.rid)
			}
			if tc.trace == "" && fwd.Valid() {
				t.Fatalf("untraced request forwarded trace context %v", fwd)
			}
			if tc.trace != "" {
				sent, _ := obs.ParseTraceContext(tc.trace)
				if fwd.TraceID != sent.TraceID || !fwd.Sampled {
					t.Fatalf("trace block arrived as %v, want trace %s sampled", fwd, tc.trace)
				}
			}
			if got.budget <= 0 || got.budget > timeout {
				t.Fatalf("budget %v, want one in (0, %v]", got.budget, timeout)
			}
		})
	}
}

// TestForwardDeadMemberError pins the 503 a dead member leaves behind:
// ErrNoReplica, then the dial's own error.
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
	var env serve.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != serve.RetryAfterSeconds {
		t.Fatalf("dead member: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	want := ErrNoReplica.Error() + `: dial tcp ` + addr + `: `
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
			got, gerr := readLimited(nil, bytes.NewReader(src), size, limit)
			if !bytes.Equal(got, want) || gerr != werr {
				t.Fatalf("n=%d size=%d: got %d bytes, %v; want %d bytes, %v", n, size, len(got), gerr, len(want), werr)
			}
		}
		failing := io.MultiReader(bytes.NewReader(src[:n/2]), iotest.ErrReader(boom))
		got, err := readLimited(make([]byte, 0, 8), failing, -1, 1<<20)
		if !errors.Is(err, boom) || len(got) != n/2 {
			t.Fatalf("n=%d failing reader: %d bytes, %v", n, len(got), err)
		}
	}
}

// TestClassifyRequestDeadlineForgiven: a replica that stalls past the
// request Timeout but inside the per-try timeout answers 504, and its
// breaker records nothing — the request ran out of time, the replica
// did nothing wrong.
func TestClassifyRequestDeadlineForgiven(t *testing.T) {
	c, fl, front := newTestCluster(t, 1, func(cfg *testConfig) {
		cfg.timeout = 100 * time.Millisecond
		cfg.perTry = 2 * time.Second
		cfg.probe = time.Hour // only request outcomes feed the breaker
		cfg.breaker.minVolume, cfg.breaker.tripRate = 1, 0.01
	})
	fl.current(0).stallMS.Store(500)
	start := time.Now()
	code, out := postPredict(t, front, predictBody(1))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stall past timeout: status %d (%v), want 504", code, out)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("504 took %v, want about Timeout", el)
	}
	if vol, _ := c.memberByID(0).breaker.Stats(time.Now()); vol != 0 {
		t.Fatalf("breaker volume %d after a spent request deadline, want 0 (forgiven)", vol)
	}
}

// TestClassifyPerTryTimeoutCounts: a primary that stalls past the
// per-try timeout but inside Timeout is the replica's fault — one
// failure on its breaker — and the other replica answers the retry.
func TestClassifyPerTryTimeoutCounts(t *testing.T) {
	c, fl, front := newTestCluster(t, 2, func(cfg *testConfig) {
		cfg.timeout = 5 * time.Second
		cfg.perTry = 100 * time.Millisecond
		cfg.probe = time.Hour
		cfg.breaker.minVolume = 100
	})
	body := predictBody(3)
	if code, _ := postPredict(t, front, body); code != http.StatusOK {
		t.Fatal("warmup predict failed")
	}
	primary := nextLead(c)
	vol0, _ := c.memberByID(primary).breaker.Stats(time.Now())
	fl.current(primary).stallMS.Store(1000)

	code, out := postPredict(t, front, body)
	if code != http.StatusOK {
		t.Fatalf("per-try timeout on the primary: status %d (%v), want 200 from the other replica", code, out)
	}
	if got := answeredBy(t, out); got == primary {
		t.Fatalf("answer came from the stalled primary %d", got)
	}
	vol, rate := c.memberByID(primary).breaker.Stats(time.Now())
	if vol != vol0+1 || rate*float64(vol) < 0.5 || rate*float64(vol) > 1.5 {
		t.Fatalf("primary breaker: volume %d (was %d), fail rate %.2f — want exactly one recorded failure", vol, vol0, rate)
	}
}
