package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

const deadlineProbeBody = `{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":0.2,"msg_words":100}]}`

// TestPropagatedDeadlineTightensOnly: under an hour-long batch window
// every request waits out its deadline. A propagated
// X-Request-Deadline-Ms of 20 ends it well before Timeout; a header that
// does not parse, is not positive, or exceeds Timeout leaves Timeout in
// force — it never widens the local bound.
func TestPropagatedDeadlineTightensOnly(t *testing.T) {
	const timeout = 300 * time.Millisecond
	_, ts := newTestServer(t, Config{Window: time.Hour, Timeout: timeout})
	for _, tc := range []struct {
		header   string
		min, max time.Duration
	}{
		{"20", 20 * time.Millisecond, timeout / 2},
		{"abc", timeout, 2 * time.Second},
		{"0", timeout, 2 * time.Second},
		{"-5", timeout, 2 * time.Second},
		{"5000", timeout, 2 * time.Second},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(deadlineProbeBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(DeadlineHeader, tc.header)
		start := time.Now()
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorBody
		decodeErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusGatewayTimeout || decodeErr != nil {
			t.Fatalf("header %q: status %d (%v), want 504", tc.header, resp.StatusCode, decodeErr)
		}
		if want := "serve: request deadline exceeded: context deadline exceeded"; env.Error != want {
			t.Fatalf("header %q: error %q, want %q", tc.header, env.Error, want)
		}
		if elapsed < tc.min || elapsed > tc.max {
			t.Fatalf("header %q: 504 after %v, want within [%v, %v]", tc.header, elapsed, tc.min, tc.max)
		}
	}
}

// TestDeadlineTimerLeavesNoStaleTick reuses one workspace — and so one
// deadline timer — across requests whose flush is stalled for about
// their 1 ms deadline, so the answer and the deadline race (often both
// are ready when the request selects), then across requests with a long
// deadline. A tick left in the reused timer's channel would end a later
// request the moment it parked: every 504 must have waited at least its
// own deadline, and no long-deadline request may time out.
func TestDeadlineTimerLeavesNoStaleTick(t *testing.T) {
	s, err := New(Config{Pred: newTestPredictor(t), Window: -1, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := []byte(deadlineProbeBody)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	req.Header.Set("Content-Type", "application/json")
	req.Body = rewindBody{rd}
	w := &reuseWriter{h: http.Header{}}
	ws := new(workspace)
	run := func(deadline time.Duration) (status int, waited time.Duration) {
		req.Header.Set(DeadlineHeader, strconv.FormatInt(deadline.Milliseconds(), 10))
		rd.Reset(body)
		w.reset()
		start := time.Now()
		s.predictHTTP(w, req, ws)
		return w.status, time.Since(start)
	}
	// Window < 0 flushes inline on the requesting goroutine, so the stall
	// hook runs between arming the deadline and selecting on the answer.
	s.flushStall = func() { time.Sleep(time.Millisecond) }
	timeouts := 0
	for i := 0; i < 500; i++ {
		status, waited := run(time.Millisecond)
		switch status {
		case http.StatusOK:
		case http.StatusGatewayTimeout:
			timeouts++
			if waited < time.Millisecond {
				t.Fatalf("racing request %d: 504 after %v, before its 1ms deadline — a stale tick", i, waited)
			}
		default:
			t.Fatalf("racing request %d: status %d %q", i, status, w.body)
		}
	}
	s.flushStall = nil
	for i := 0; i < 50; i++ {
		if status, waited := run(time.Second); status != http.StatusOK {
			t.Fatalf("long-deadline request %d after %d racing 504s: status %d after %v — a stale tick", i, timeouts, status, waited)
		}
	}
	t.Logf("%d of 500 racing requests timed out", timeouts)
}
