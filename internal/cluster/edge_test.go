package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/runner"
	"contention/internal/serve"
)

// edgeAnswer is what a client can see of one answer: the decoded body
// stands in for the bytes, and a request id the server minted for
// "minted" (ids are random; that both tiers minted one is the point).
type edgeAnswer struct {
	Status      int
	ContentType string
	RetryAfter  string
	RequestID   string
	Body        any
}

// TestEdgeParity sends the same requests to one replica on its own and
// to one behind the router: a client must not be able to tell them
// apart by status, back-off hint, request id or body.
func TestEdgeParity(t *testing.T) {
	cal := serve.SyntheticCalibration()
	pred := core.NewPredictorLenient(cal)
	tracker, err := caltrust.NewTracker(pred, caltrust.DefaultTrackerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Pred: pred, Tracker: tracker, Pool: runner.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		replica.Close()
		srv.Close()
	})

	c, err := New(Config{Replicas: 1, Factory: InProcessFactory(InProcConfig{}), ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(c.Handler())
	t.Cleanup(router.Close)

	d := 2.0
	binBody, err := serve.AppendBinaryRequest(nil, &serve.Request{Kind: "comp", Dcomp: &d,
		Contenders: []serve.ContenderSpec{{CommFraction: 0.3, MsgWords: 100}}})
	if err != nil {
		t.Fatal(err)
	}
	longID := strings.Repeat("r", 2048)
	rows := []struct {
		name, method, path, contentType, rid string
		body                                 []byte
		before                               func()
	}{
		{name: "malformed-json", method: "POST", path: "/v1/predict", contentType: "application/json", body: []byte(`{"kind":`)},
		{name: "over-long-id", method: "POST", path: "/v1/predict", contentType: "application/json", rid: longID, body: []byte(predictBody(1))},
		{name: "json-success-id", method: "POST", path: "/v1/predict", contentType: "application/json", rid: "cli-7", body: []byte(predictBody(2))},
		{name: "binary-success-id", method: "POST", path: "/v1/predict", contentType: serve.ContentTypeBinary, rid: "cli-7", body: binBody},
		{name: "draining-readyz", method: "GET", path: "/readyz", before: func() {
			srv.Drain()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := c.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.before != nil {
				row.before()
			}
			var got [2]edgeAnswer
			for i, base := range []string{replica.URL, router.URL} {
				req, err := http.NewRequest(row.method, base+row.path, bytes.NewReader(row.body))
				if err != nil {
					t.Fatal(err)
				}
				if row.contentType != "" {
					req.Header.Set("Content-Type", row.contentType)
				}
				if row.rid != "" {
					req.Header.Set(serve.RequestIDHeader, row.rid)
				}
				got[i] = edgeAnswerOf(t, req, row.rid)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("replica answers %+v\nrouter answers  %+v", got[0], got[1])
			}
		})
	}
}

// edgeAnswerOf sends req and reads what its client sees. rid is the id
// the client sent: a different id in the answer must be a minted one,
// the same in the header and the body.
func edgeAnswerOf(t *testing.T, req *http.Request, rid string) edgeAnswer {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	a := edgeAnswer{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After"),
		RequestID:   resp.Header.Get(serve.RequestIDHeader),
	}
	if a.ContentType == serve.ContentTypeBinary {
		r, err := serve.DecodeBinaryResponse(raw)
		if err != nil {
			t.Fatalf("binary answer %x: %v", raw, err)
		}
		a.Body = r
		return a
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("answer %q: %v", raw, err)
	}
	a.Body = body
	if a.RequestID != "" && a.RequestID != rid {
		if !lbHexIDRe.MatchString(a.RequestID) || body["request_id"] != a.RequestID {
			t.Fatalf("minted id: header %q, body %v", a.RequestID, body["request_id"])
		}
		a.RequestID, body["request_id"] = "minted", "minted"
	}
	return a
}
