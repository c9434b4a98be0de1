package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"contention/internal/core"
)

// Payload bounds: the decoder is the daemon's outermost trust boundary,
// so every dimension of a request is capped before any model code runs.
const (
	// MaxBodyBytes bounds the request body.
	MaxBodyBytes = 1 << 20
	// MaxContenders bounds the contender set (after replication by P).
	MaxContenders = 64
	// MaxDataSets bounds the data-set list of a comm query.
	MaxDataSets = 256
)

// RequestError is a client-side fault: the request could not be decoded
// or validated. Status is always in the 4xx range.
type RequestError struct {
	Status int
	Msg    string
}

// Error implements error.
func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// ContenderSpec is the wire form of one contending application.
type ContenderSpec struct {
	CommFraction float64 `json:"comm_fraction"`
	MsgWords     int     `json:"msg_words"`
	IOFraction   float64 `json:"io_fraction,omitempty"`
}

// DataSetSpec is the wire form of one message group.
type DataSetSpec struct {
	N     int `json:"n"`
	Words int `json:"words"`
}

// Request is the wire form of one prediction query.
//
//   - kind "comm": slowdown-adjusted communication cost for Sets
//     transferred in direction Dir under Contenders.
//   - kind "comp": slowdown-adjusted computation cost for Dcomp
//     dedicated seconds under Contenders; J forces a delay^{i,j} column
//     (omitted: the paper's auto rule, maximum contender message size).
//
// P, when set with a single contender spec, replicates that spec P
// times — the "p identical contenders" shorthand the paper's sweeps
// use.
type Request struct {
	Kind       string          `json:"kind"`
	Dir        string          `json:"dir,omitempty"`
	Sets       []DataSetSpec   `json:"sets,omitempty"`
	Dcomp      *float64        `json:"dcomp,omitempty"`
	J          *int            `json:"j,omitempty"`
	P          *int            `json:"p,omitempty"`
	Contenders []ContenderSpec `json:"contenders"`
}

// Response is the wire form of one prediction answer.
type Response struct {
	Value float64 `json:"value"`
	// Degraded marks a conservative p+1 fallback answer; Reason says why.
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Batch is the size of the micro-batch this answer was computed in
	// (0 for answers that bypassed the batcher, e.g. degraded mode).
	Batch int `json:"batch,omitempty"`
	// Fast marks an answer served by the batcher-bypass fast path: a
	// precomputed-surface lookup or an inline exact DP, never parked.
	Fast bool `json:"fast,omitempty"`
}

// errorBody is the JSON error envelope. RequestID echoes the caller's
// X-Request-Id (or a server-minted one) so a failure in a chaos-gate
// log can be correlated with its trace and with the router's records.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// query is a decoded, validated request in model-core types.
type query struct {
	kind  string // "comm" or "comp"
	dir   core.Direction
	sets  []core.DataSet
	dcomp float64
	j     int
	hasJ  bool
	cs    []core.Contender
}

// DecodeRequest reads and validates one prediction request. All
// failures are *RequestError (4xx): the decoder must never panic and
// never let NaN/Inf, negative counts, or oversized payloads reach the
// model core.
func DecodeRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("malformed request: %v", err)
	}
	// A second value on the stream (or trailing garbage) is malformed.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("trailing data after request body")
	}
	return &req, nil
}

// validate converts the wire request into model-core types, rejecting
// anything the model would choke on.
func (req *Request) validate() (query, error) {
	var q query
	switch req.Kind {
	case "comm", "comp":
		q.kind = req.Kind
	case "":
		return q, badRequest("missing kind (want \"comm\" or \"comp\")")
	default:
		return q, badRequest("unknown kind %q (want \"comm\" or \"comp\")", req.Kind)
	}

	cs, err := req.contenders()
	if err != nil {
		return q, err
	}
	q.cs = cs

	switch q.kind {
	case "comm":
		if req.Dcomp != nil || req.J != nil {
			return q, badRequest("comm query does not take dcomp or j")
		}
		switch strings.ToLower(req.Dir) {
		case "to_back", "to-back", "host_to_back":
			q.dir = core.HostToBack
		case "to_host", "to-host", "back_to_host":
			q.dir = core.BackToHost
		case "":
			return q, badRequest("comm query missing dir (want \"to_back\" or \"to_host\")")
		default:
			return q, badRequest("unknown dir %q (want \"to_back\" or \"to_host\")", req.Dir)
		}
		if len(req.Sets) == 0 {
			return q, badRequest("comm query needs at least one data set")
		}
		if len(req.Sets) > MaxDataSets {
			return q, badRequest("too many data sets (%d > %d)", len(req.Sets), MaxDataSets)
		}
		q.sets = make([]core.DataSet, len(req.Sets))
		for i, s := range req.Sets {
			d := core.DataSet{N: s.N, Words: s.Words}
			if err := d.Validate(); err != nil {
				return q, badRequest("sets[%d]: %v", i, err)
			}
			q.sets[i] = d
		}
	case "comp":
		if req.Dir != "" || len(req.Sets) > 0 {
			return q, badRequest("comp query does not take dir or sets")
		}
		if req.Dcomp == nil {
			return q, badRequest("comp query missing dcomp")
		}
		d := *req.Dcomp
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return q, badRequest("dcomp %v must be finite and non-negative", d)
		}
		q.dcomp = d
		if req.J != nil {
			if *req.J < 0 {
				return q, badRequest("j %d must be non-negative", *req.J)
			}
			q.j, q.hasJ = *req.J, true
		}
	}
	return q, nil
}

// contenders expands and validates the contender list.
func (req *Request) contenders() ([]core.Contender, error) {
	specs := req.Contenders
	if req.P != nil {
		p := *req.P
		if p < 0 {
			return nil, badRequest("p %d must be non-negative", p)
		}
		if p > MaxContenders {
			return nil, badRequest("p %d exceeds the %d-contender limit", p, MaxContenders)
		}
		if len(specs) != 1 {
			return nil, badRequest("p requires exactly one contender spec to replicate (got %d)", len(specs))
		}
		rep := make([]ContenderSpec, p)
		for i := range rep {
			rep[i] = specs[0]
		}
		specs = rep
	}
	if len(specs) > MaxContenders {
		return nil, badRequest("too many contenders (%d > %d)", len(specs), MaxContenders)
	}
	cs := make([]core.Contender, len(specs))
	for i, c := range specs {
		ct := core.Contender{CommFraction: c.CommFraction, MsgWords: c.MsgWords, IOFraction: c.IOFraction}
		if err := ct.Validate(); err != nil {
			return nil, badRequest("contenders[%d]: %v", i, err)
		}
		cs[i] = ct
	}
	return cs, nil
}

// BatchKey validates the request and returns its canonical affinity
// key: the (kind, direction, explicit-j, contender-multiset) string
// under which the server micro-batches it. Two requests with equal keys
// are answered by one batched predictor call, so a router that keeps
// equal keys on one replica preserves batching efficiency instead of
// diluting it across the fleet. Failures are the same *RequestError the
// serving path would return.
func (req *Request) BatchKey() (string, error) {
	q, err := req.validate()
	if err != nil {
		return "", err
	}
	return batchKey(q), nil
}

// statusFor maps an error from the serving pipeline to an HTTP status:
// request faults keep their 4xx, admission rejections map to 429/504,
// and model-side failures (a calibration that cannot answer) are 422 —
// the request was well-formed, this calibration just cannot price it.
func statusFor(err error) int {
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		return reqErr.Status
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}
