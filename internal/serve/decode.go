package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"

	"contention/internal/core"
	"contention/internal/obs"
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

// maxWireCount caps msg_words, a data set's n and words, and j: the
// binary wire carries them as u32, and both wires accept the same
// requests.
const maxWireCount = math.MaxUint32

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

// form is a request as a codec read it, before validation: Request's
// scalar fields, with the two lists in the workspace arrays. nSets and
// nCs are the lengths as sent; only the first MaxDataSets and
// MaxContenders elements are kept, and validate refuses longer lists
// before it reads any element.
type form struct {
	kind, dir  string
	nSets, nCs int
	dcomp      float64
	j, p       int
	hasDcomp   bool
	hasJ, hasP bool
}

// A wire is one body format of POST /v1/predict.
type wire interface {
	// decode reads one request body into ws and validates it; on success
	// ws.q is the query, its slices aliasing ws's arrays.
	decode(body io.Reader, ws *workspace) error
	// appendResponse appends the encoding of one answer to dst.
	appendResponse(dst []byte, resp Response) []byte
}

// workspace is one request's pooled memory, shared by both wires and by
// every entry point that takes a request: the raw body, the form a codec
// fills, the fixed arrays the validated query's slices point into, and
// the response buffer, plus the batched path's deadline timer. It goes
// back to the pool only once nothing references those slices any more —
// after the response is encoded; a query the batcher retains owns cloned
// slices.
type workspace struct {
	form form
	q    query
	tc   obs.TraceContext // in-band trace block, zero when absent
	cs   [MaxContenders]core.Contender
	sets [MaxDataSets]core.DataSet
	buf  []byte // request body
	str  []byte // unescaped JSON strings
	out  []byte // response, or the batch key
	// hdr/probe live here rather than on readBody's stack: passing a
	// stack array through the io.Reader interface makes it escape, and
	// the pooled struct is already heap-resident.
	hdr   [4]byte
	probe [1]byte
	timer WaitTimer
	frame Frame // the request frame read into buf, on a frame connection
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// pooledBufferCap is the largest buffer a workspace keeps across uses:
// one oversized body must not pin a megabyte in the pool.
const pooledBufferCap = 64 << 10

func getWorkspace() *workspace { return workspacePool.Get().(*workspace) }

func putWorkspace(ws *workspace) {
	if cap(ws.buf) > pooledBufferCap {
		ws.buf = nil
	}
	if cap(ws.str) > pooledBufferCap {
		ws.str = nil
	}
	workspacePool.Put(ws)
}

// load copies req into ws's form and arrays and validates it.
func (ws *workspace) load(req *Request) error {
	f := &ws.form
	*f = form{kind: req.Kind, dir: req.Dir, nSets: len(req.Sets), nCs: len(req.Contenders)}
	if req.Dcomp != nil {
		f.dcomp, f.hasDcomp = *req.Dcomp, true
	}
	if req.J != nil {
		f.j, f.hasJ = *req.J, true
	}
	if req.P != nil {
		f.p, f.hasP = *req.P, true
	}
	for i, s := range req.Sets[:min(len(req.Sets), MaxDataSets)] {
		ws.sets[i] = core.DataSet{N: s.N, Words: s.Words}
	}
	for i, c := range req.Contenders[:min(len(req.Contenders), MaxContenders)] {
		ws.cs[i] = core.Contender{CommFraction: c.CommFraction, MsgWords: c.MsgWords, IOFraction: c.IOFraction}
	}
	return ws.validate()
}

// validate is the one semantic check of a request, whichever wire or
// entry point it came through: it turns ws.form into ws.q, rejecting
// anything the model would choke on with a *RequestError naming the
// field. It must never panic and never let NaN/Inf, negative counts, or
// oversized lists reach the model core.
func (ws *workspace) validate() error {
	f := &ws.form
	q := &ws.q
	*q = query{}
	switch f.kind {
	case "comm":
		q.kind = "comm"
	case "comp":
		q.kind = "comp"
	case "":
		return badRequest("missing kind (want \"comm\" or \"comp\")")
	default:
		return badRequest("unknown kind %q (want \"comm\" or \"comp\")", f.kind)
	}

	n := f.nCs
	if f.hasP {
		p := f.p
		if p < 0 {
			return badRequest("p %d must be non-negative", p)
		}
		if p > MaxContenders {
			return badRequest("p %d exceeds the %d-contender limit", p, MaxContenders)
		}
		if n != 1 {
			return badRequest("p requires exactly one contender spec to replicate (got %d)", n)
		}
		for i := 1; i < p; i++ {
			ws.cs[i] = ws.cs[0]
		}
		n = p
	}
	if n > MaxContenders {
		return badRequest("too many contenders (%d > %d)", n, MaxContenders)
	}
	cs := ws.cs[:n]
	for i := range cs {
		if err := cs[i].Validate(); err != nil {
			return badRequest("contenders[%d]: %v", i, err)
		}
		if uint64(cs[i].MsgWords) > maxWireCount {
			return badRequest("contenders[%d]: msg_words %d exceeds %d", i, cs[i].MsgWords, maxWireCount)
		}
	}
	q.cs = cs

	switch q.kind {
	case "comm":
		if f.hasDcomp || f.hasJ {
			return badRequest("comm query does not take dcomp or j")
		}
		switch strings.ToLower(f.dir) {
		case "to_back", "to-back", "host_to_back":
			q.dir = core.HostToBack
		case "to_host", "to-host", "back_to_host":
			q.dir = core.BackToHost
		case "":
			return badRequest("comm query missing dir (want \"to_back\" or \"to_host\")")
		default:
			return badRequest("unknown dir %q (want \"to_back\" or \"to_host\")", f.dir)
		}
		if f.nSets == 0 {
			return badRequest("comm query needs at least one data set")
		}
		if f.nSets > MaxDataSets {
			return badRequest("too many data sets (%d > %d)", f.nSets, MaxDataSets)
		}
		sets := ws.sets[:f.nSets]
		for i, d := range sets {
			if err := d.Validate(); err != nil {
				return badRequest("sets[%d]: %v", i, err)
			}
			if uint64(d.N) > maxWireCount {
				return badRequest("sets[%d]: n %d exceeds %d", i, d.N, maxWireCount)
			}
			if uint64(d.Words) > maxWireCount {
				return badRequest("sets[%d]: words %d exceeds %d", i, d.Words, maxWireCount)
			}
		}
		q.sets = sets
	case "comp":
		if f.dir != "" || f.nSets > 0 {
			return badRequest("comp query does not take dir or sets")
		}
		if !f.hasDcomp {
			return badRequest("comp query missing dcomp")
		}
		d := f.dcomp
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return badRequest("dcomp %v must be finite and non-negative", d)
		}
		q.dcomp = d
		if f.hasJ {
			if f.j < 0 {
				return badRequest("j %d must be non-negative", f.j)
			}
			if uint64(f.j) > maxWireCount {
				return badRequest("j %d exceeds %d", f.j, maxWireCount)
			}
			q.j, q.hasJ = f.j, true
		}
	}
	return nil
}

// DecodeRequest reads and validates one JSON prediction request and
// returns it in canonical form: P expanded into the contender list, dir
// spelled "to_back" or "to_host", and slices that alias nothing. All
// failures are *RequestError (4xx): the decoder must never panic and
// never let NaN/Inf, negative counts, or oversized payloads reach the
// model core.
func DecodeRequest(r io.Reader) (*Request, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := (jsonWire{}).decode(r, ws); err != nil {
		return nil, err
	}
	return ws.q.request(), nil
}

// DecodeBinaryRequest parses one length-prefixed binary request payload
// (the AppendBinaryRequest encoding) back into its wire Request form —
// the read-side counterpart replay drivers use to interpret trace
// bytes. All faults are *RequestError, exactly like the server's own
// decoder; any in-band trace block is validated and dropped.
func DecodeBinaryRequest(b []byte) (*Request, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.decodeBinaryFrame(b); err != nil {
		return nil, err
	}
	return ws.q.request(), nil
}

// BatchKey validates the request and returns its canonical affinity
// key: the (kind, direction, explicit-j, contender-multiset) string
// under which the server micro-batches it. Two requests with equal keys
// are answered by one batched predictor call, so a router that keeps
// equal keys on one replica preserves batching efficiency instead of
// diluting it across the fleet. Failures are the same *RequestError the
// serving path would return.
func (req *Request) BatchKey() (string, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.load(req); err != nil {
		return "", err
	}
	ws.out = appendBatchKey(ws.out[:0], &ws.q)
	return string(ws.out), nil
}

// BatchKeyOf decodes and validates one request body — binary when
// binaryWire is set, JSON otherwise — and returns its batch key (see
// Request.BatchKey), without building the Request: a router's affinity
// decode. It also appends the request's binary record, with no trace
// block, to rec — what a router forwards in a frame (AppendRequestFrame)
// whichever wire the client spoke.
func BatchKeyOf(body []byte, binaryWire bool, rec []byte) (string, []byte, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	var err error
	if binaryWire {
		err = ws.decodeBinaryFrame(body)
	} else {
		err = ws.decodeJSON(body)
	}
	if err != nil {
		return "", rec, err
	}
	ws.out = appendBatchKey(ws.out[:0], &ws.q)
	return string(ws.out), appendBinaryQuery(rec, &ws.q, obs.TraceContext{}), nil
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
