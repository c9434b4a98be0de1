package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"contention/internal/serve"
)

// TestRouterBinaryWire pins the router's binary wire path end to end:
// a binary-encoded request must decode at the router, come back 200
// with a binary response body, and carry the same predicted value
// as the identical JSON request. Malformed binary bodies must fail at
// the router with the JSON error envelope, not reach a replica.
func TestRouterBinaryWire(t *testing.T) {
	c, err := New(Config{
		Replicas: 2,
		Factory:  InProcessFactory(InProcConfig{Window: 200 * time.Microsecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})

	d := 2.5
	req := &serve.Request{
		Kind:  "comp",
		Dcomp: &d,
		Contenders: []serve.ContenderSpec{
			{CommFraction: 0.3, MsgWords: 400},
			{CommFraction: 0.6, MsgWords: 900},
		},
	}
	jb, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := serve.AppendBinaryRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}

	// JSON reference answer.
	resp, err := front.Client().Post(front.URL+"/v1/predict", "application/json", bytes.NewReader(jb))
	if err != nil {
		t.Fatal(err)
	}
	var jsonOut serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&jsonOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON predict status %d", resp.StatusCode)
	}

	// Binary answers must match bit for bit and arrive with the binary
	// content type.
	for i := 0; i < 5; i++ {
		resp, err := front.Client().Post(front.URL+"/v1/predict", serve.ContentTypeBinary, bytes.NewReader(bb))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary predict %d: status %d, body %q", i, resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != serve.ContentTypeBinary {
			t.Fatalf("binary predict %d: content type %q", i, ct)
		}
		out, err := serve.DecodeBinaryResponse(raw)
		if err != nil {
			t.Fatalf("binary predict %d: %v", i, err)
		}
		if math.Float64bits(out.Value) != math.Float64bits(jsonOut.Value) {
			t.Fatalf("binary value %x, JSON value %x", math.Float64bits(out.Value), math.Float64bits(jsonOut.Value))
		}
	}

	// A malformed binary body is rejected at the router as a 400 JSON
	// envelope.
	resp, err = front.Client().Post(front.URL+"/v1/predict", serve.ContentTypeBinary, bytes.NewReader([]byte{0xde, 0xad}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed binary: status %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("malformed binary: error content type %q, want application/json", ct)
	}
}
