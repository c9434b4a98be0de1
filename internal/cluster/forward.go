package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"contention/internal/obs"
	"contention/internal/serve"
)

// The router's hop is a forward, not a fresh client request: each try
// builds one outbound request and hands it to the shared transport's
// RoundTrip, as httputil.ReverseProxy does. No URL is parsed, no header
// map is copied for a redirect policy (a replica never redirects
// /v1/predict), and every header value comes from a shared slice or from
// an array inside the request's own allocation; besides that allocation
// a try makes only its header map, its GetBody method value and the
// deadline's digits.

// Content-Type values of both legs, shared by every request: the
// transport and the response writer only read them.
var (
	contentTypeJSON   = []string{"application/json"}
	contentTypeBinary = []string{serve.ContentTypeBinary}
)

// outbound is one try's request to a replica in one allocation: the
// request, its URL, the reader over the body bytes the router already
// holds, and the backing arrays of the per-request header values.
type outbound struct {
	req  http.Request
	url  url.URL
	body bodyReader
	rid  [1]string
	tc   [1]string
	dl   [1]string
}

// bodyReader is the outbound body: a reader over bytes nobody mutates,
// so GetBody can hand the transport a fresh one when it retries a
// request that died on a stale idle connection.
type bodyReader struct {
	bytes.Reader
	data []byte
}

func (*bodyReader) Close() error { return nil }

func (b *bodyReader) rewind() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(b.data)), nil
}

// newOutbound builds the POST of body to addr's /v1/predict under ctx.
// The request wire's Content-Type, the request id and the trace context
// tc ride along when present, and the time left until the request
// deadline goes out in whole milliseconds when any is left.
func newOutbound(ctx context.Context, addr string, body []byte, meta *reqMeta, tc obs.TraceContext) *http.Request {
	o := &outbound{url: url.URL{Scheme: "http", Host: addr, Path: "/v1/predict"}}
	o.body.Reset(body)
	o.body.data = body
	ct := contentTypeJSON
	if meta.contentType == serve.ContentTypeBinary {
		ct = contentTypeBinary
	}
	h := make(http.Header, 4)
	h["Content-Type"] = ct
	if tc.Valid() {
		o.tc[0] = tc.String()
		h[serve.TraceHeader] = o.tc[:]
	}
	if meta.rid != "" {
		o.rid[0] = meta.rid
		h[serve.RequestIDHeader] = o.rid[:]
	}
	// The replica bounds its own work (batching window, queue wait) to
	// time someone is still waiting for.
	if ms := time.Until(meta.deadline).Milliseconds(); ms > 0 {
		o.dl[0] = strconv.FormatInt(ms, 10)
		h[serve.DeadlineHeader] = o.dl[:]
	}
	// WithContext is the only way to set a request's context; it copies
	// the template, which stays on the stack, into o.
	o.req = *(&http.Request{
		Method:        http.MethodPost,
		URL:           &o.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          &o.body,
		GetBody:       o.body.rewind,
		ContentLength: int64(len(body)),
		Host:          addr,
	}).WithContext(ctx)
	if len(body) == 0 {
		o.req.Body = http.NoBody
	}
	return &o.req
}

// readLimited is io.ReadAll(io.LimitReader(r, limit)) into a buffer
// sized from the declared length when there is one (size < 0: unknown),
// so a body of known length is read with one allocation and no growth.
func readLimited(r io.Reader, size, limit int64) ([]byte, error) {
	c := int64(512)
	if size >= 0 && size < limit {
		c = size + 1 // room for the read that sees EOF
	}
	b := make([]byte, 0, c)
	for int64(len(b)) < limit {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		p := b[len(b):cap(b)]
		if rem := limit - int64(len(b)); int64(len(p)) > rem {
			p = p[:rem]
		}
		n, err := r.Read(p)
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}
