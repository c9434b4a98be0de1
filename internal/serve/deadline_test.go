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
// X-Request-Deadline-Ms of 20 ends it 20 ms after it arrives, well
// before Timeout; a header that does not parse, is not positive, or
// exceeds Timeout leaves Timeout in force — it never widens the local
// bound. Each 504 comes at exactly its deadline's virtual instant.
func TestPropagatedDeadlineTightensOnly(t *testing.T) {
	const timeout = 300 * time.Millisecond
	clk := newFakeClock()
	_, ts := newTunedServer(t, Config{Window: time.Hour}, tunedWith(func(tun *tuning) {
		tun.timeout, tun.clock = timeout, clk
	}))
	for _, tc := range []struct {
		header string
		after  time.Duration
	}{
		{"20", 20 * time.Millisecond},
		{"abc", timeout},
		{"0", timeout},
		{"-5", timeout},
		{"5000", timeout},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(deadlineProbeBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(DeadlineHeader, tc.header)
		start := clk.Now()
		type answer struct {
			status int
			env    ErrorBody
			err    error
		}
		got := make(chan answer, 1)
		go func() {
			resp, err := ts.Client().Do(req)
			if err != nil {
				got <- answer{err: err}
				return
			}
			var a answer
			a.status, a.err = resp.StatusCode, json.NewDecoder(resp.Body).Decode(&a.env)
			resp.Body.Close()
			got <- a
		}()
		// Armed: the request's deadline and the window, an hour out.
		want := start.Add(tc.after)
		if at := clk.armed(2); !at[0].Equal(want) {
			t.Fatalf("header %q: deadline armed %v after arrival, want %v", tc.header, at[0].Sub(start), tc.after)
		}
		clk.advance(tc.after - time.Nanosecond)
		if at := clk.armed(2); !at[0].Equal(want) {
			t.Fatalf("header %q: deadline gone %v early", tc.header, time.Nanosecond)
		}
		clk.advance(time.Nanosecond)
		a := <-got
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.status != http.StatusGatewayTimeout {
			t.Fatalf("header %q: status %d, want 504", tc.header, a.status)
		}
		if want := "serve: request deadline exceeded: context deadline exceeded"; a.env.Error != want {
			t.Fatalf("header %q: error %q, want %q", tc.header, a.env.Error, want)
		}
		if el := clk.Now().Sub(start); el != tc.after {
			t.Fatalf("header %q: 504 after %v, want %v", tc.header, el, tc.after)
		}
	}
}

// TestDeadlineTimerLeavesNoStaleTick reuses one workspace — and so one
// deadline timer — across requests whose flush moves the clock to their
// 1 ms deadline, so the answer and the deadline race (both are ready
// when the request selects), then across requests with a long deadline.
// A tick left in the reused timer's channel would end a later request
// the moment it parked: every racing request must wait exactly its
// deadline, and no long-deadline request may time out.
func TestDeadlineTimerLeavesNoStaleTick(t *testing.T) {
	clk := newFakeClock()
	s, err := newServer(Config{Pred: newTestPredictor(t), Window: -1}, tunedWith(func(tun *tuning) {
		tun.timeout, tun.clock = time.Second, clk
	}))
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
		start := clk.Now()
		s.predictHTTP(w, req, ws)
		return w.status, clk.Now().Sub(start)
	}
	// Window < 0 flushes inline on the requesting goroutine, so the stall
	// hook runs between arming the deadline and selecting on the answer.
	s.flushStall = func() { clk.advance(time.Millisecond) }
	timeouts := 0
	for i := 0; i < 500; i++ {
		status, waited := run(time.Millisecond)
		switch status {
		case http.StatusOK:
		case http.StatusGatewayTimeout:
			timeouts++
		default:
			t.Fatalf("racing request %d: status %d %q", i, status, w.body)
		}
		if waited != time.Millisecond {
			t.Fatalf("racing request %d: %d after %v, want exactly its 1ms deadline", i, status, waited)
		}
	}
	s.flushStall = nil
	for i := 0; i < 50; i++ {
		if status, waited := run(time.Second); status != http.StatusOK {
			t.Fatalf("long-deadline request %d after %d racing 504s: status %d after %v — a stale tick", i, timeouts, status, waited)
		}
	}
	if timeouts == 0 || timeouts == 500 {
		t.Fatalf("%d of 500 racing requests timed out: the answer and the deadline never raced", timeouts)
	}
	t.Logf("%d of 500 racing requests timed out", timeouts)
}
