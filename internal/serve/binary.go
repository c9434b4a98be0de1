// Binary wire. Beside the JSON wire the daemon negotiates a
// length-prefixed binary format via Content-Type: smaller on the wire,
// with no text to scan or numbers to parse, and framed so that the
// decoder knows every length up front. Both wires decode into the same
// pooled workspace and pass the same validator, so they accept the same
// requests and price them identically; a warm request on either
// allocates nothing in its codec.
//
// Request payload (all integers little-endian):
//
//	u32  payload length (bytes after this prefix; capped at MaxBodyBytes)
//	u8   version (= 1)
//	u8   kind    (1 = comm, 2 = comp)
//	u8   flags   (comm: bit0 = direction, 0 to_back / 1 to_host;
//	              comp: bit0 = explicit j present;
//	              both: bit7 = trace block present)
//	u8   contender count
//	flags bit7: trace block — u64 trace id, u64 parent span id,
//	            u8 trace flags (bit0 = sampled)
//	kind comm: u16 data-set count, then count × (u32 n, u32 words)
//	kind comp: f64 dcomp, then u32 j if flags bit0
//	contender count × (f64 comm_fraction, f64 io_fraction, u32 msg_words)
//
// The trace block carries the same obs.TraceContext the HTTP trace
// header does, in-band so a binary client needs no extra header pass;
// servers that predate the flag reject it as unknown (fail-closed), and
// servers that know it accept requests without it unchanged.
//
// The payload length must match the content exactly; truncation,
// trailing bytes, NaN/Inf fractions, and out-of-range counts are all
// typed 4xx RequestErrors — never a panic (FuzzDecodeBinaryRequest).
//
// Response payload:
//
//	u32  payload length
//	u8   version (= 1)
//	u8   flags   (bit0 degraded, bit1 fast)
//	u16  reason length
//	f64  value
//	u32  batch size
//	reason bytes
//
// Pipeline errors (4xx/5xx) are answered as the usual JSON error
// envelope with the HTTP status carrying the verdict, so binary
// clients need no second error format on the hot path.
package serve

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"

	"contention/internal/core"
	"contention/internal/obs"
)

// ContentTypeBinary selects the binary request/response format on
// POST /v1/predict.
const ContentTypeBinary = "application/x-contention-predict"

const (
	binVersion = 1

	binKindComm = 1
	binKindComp = 2

	binFlagDirToHost = 1    // comm: direction is back→host
	binFlagHasJ      = 1    // comp: explicit j column follows dcomp
	binFlagTrace     = 0x80 // both kinds: trace block follows the header

	binRespDegraded = 1
	binRespFast     = 2

	binContenderBytes = 20 // f64 + f64 + u32
	binDataSetBytes   = 8  // u32 + u32
	binTraceBytes     = 17 // u64 trace id + u64 span id + u8 flags
)

// binaryWire is the binary body format.
type binaryWire struct{}

func (binaryWire) decode(body io.Reader, ws *workspace) error {
	if err := ws.readBody(body); err != nil {
		return err
	}
	return ws.decodeBinary(ws.buf)
}

func (binaryWire) appendResponse(dst []byte, resp Response) []byte {
	return AppendBinaryResponse(dst, resp)
}

// readBody reads one length-prefixed payload into ws.buf, enforcing the
// size cap and exact framing.
func (ws *workspace) readBody(body io.Reader) error {
	if _, err := io.ReadFull(body, ws.hdr[:]); err != nil {
		return badRequest("binary request: missing length prefix: %v", err)
	}
	n := binary.LittleEndian.Uint32(ws.hdr[:])
	if n > MaxBodyBytes {
		return badRequest("binary payload %d exceeds %d bytes", n, MaxBodyBytes)
	}
	if cap(ws.buf) < int(n) {
		ws.buf = make([]byte, n)
	} else {
		ws.buf = ws.buf[:n]
	}
	if _, err := io.ReadFull(body, ws.buf); err != nil {
		return badRequest("binary payload truncated: declared %d bytes: %v", n, err)
	}
	if m, _ := body.Read(ws.probe[:]); m != 0 {
		return badRequest("trailing data after binary payload")
	}
	return nil
}

// decodeBinaryFrame decodes and validates one whole request, length
// prefix included, held in memory.
func (ws *workspace) decodeBinaryFrame(b []byte) error {
	if len(b) < 4 {
		return badRequest("binary request: missing length prefix")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > MaxBodyBytes {
		return badRequest("binary payload %d exceeds %d bytes", n, MaxBodyBytes)
	}
	if len(b)-4 != n {
		return badRequest("binary payload is %d bytes, declared %d", len(b)-4, n)
	}
	return ws.decodeBinary(b[4:])
}

// decodeBinary parses payload b (the bytes after the length prefix) into
// ws's form and arrays, checks the framing, and validates. b is not
// retained.
func (ws *workspace) decodeBinary(b []byte) error {
	ws.tc = obs.TraceContext{}
	if len(b) < 4 {
		return badRequest("binary request too short (%d payload bytes)", len(b))
	}
	version, kind, flags, nc := b[0], b[1], b[2], int(b[3])
	b = b[4:]
	if version != binVersion {
		return badRequest("unsupported binary version %d (want %d)", version, binVersion)
	}
	f := &ws.form
	*f = form{nCs: nc}
	// The trace block is kind-independent, so it is parsed (and its flag
	// bit cleared) before the kind-specific flag checks.
	if flags&binFlagTrace != 0 {
		if len(b) < binTraceBytes {
			return badRequest("binary trace block truncated (%d of %d bytes)", len(b), binTraceBytes)
		}
		// A zero trace id or unknown trace-flag bits can never come from
		// our encoder; reject rather than guess (keeps decode→re-encode
		// exact, the fuzz round-trip property).
		if b[16]&^1 != 0 {
			return badRequest("unknown trace flags %#x", b[16])
		}
		ws.tc = obs.TraceContext{
			TraceID: binary.LittleEndian.Uint64(b),
			SpanID:  binary.LittleEndian.Uint64(b[8:]),
			Sampled: b[16]&1 != 0,
		}
		if !ws.tc.Valid() {
			return badRequest("binary trace block with zero trace id")
		}
		b = b[binTraceBytes:]
		flags &^= binFlagTrace
	}
	switch kind {
	case binKindComm:
		f.kind = "comm"
		if flags&^byte(binFlagDirToHost) != 0 {
			return badRequest("unknown comm flags %#x", flags)
		}
		f.dir = "to_back"
		if flags&binFlagDirToHost != 0 {
			f.dir = "to_host"
		}
		if len(b) < 2 {
			return badRequest("binary comm query: truncated data-set count")
		}
		ns := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < ns*binDataSetBytes {
			return badRequest("binary comm query: truncated data sets (%d of %d declared)",
				len(b)/binDataSetBytes, ns)
		}
		f.nSets = ns
		for i := range ws.sets[:min(ns, MaxDataSets)] {
			ws.sets[i] = core.DataSet{
				N:     int(binary.LittleEndian.Uint32(b[i*binDataSetBytes:])),
				Words: int(binary.LittleEndian.Uint32(b[i*binDataSetBytes+4:])),
			}
		}
		b = b[ns*binDataSetBytes:]
	case binKindComp:
		f.kind = "comp"
		if flags&^byte(binFlagHasJ) != 0 {
			return badRequest("unknown comp flags %#x", flags)
		}
		if len(b) < 8 {
			return badRequest("binary comp query: truncated dcomp")
		}
		f.dcomp, f.hasDcomp = math.Float64frombits(binary.LittleEndian.Uint64(b)), true
		b = b[8:]
		if flags&binFlagHasJ != 0 {
			if len(b) < 4 {
				return badRequest("binary comp query: truncated j")
			}
			f.j, f.hasJ = int(binary.LittleEndian.Uint32(b)), true
			b = b[4:]
		}
	default:
		return badRequest("unknown binary kind %d", kind)
	}
	if len(b) != nc*binContenderBytes {
		return badRequest("binary contender block is %d bytes, want %d for %d contenders",
			len(b), nc*binContenderBytes, nc)
	}
	for i := range ws.cs[:min(nc, MaxContenders)] {
		c := b[i*binContenderBytes:]
		ws.cs[i] = core.Contender{
			CommFraction: math.Float64frombits(binary.LittleEndian.Uint64(c)),
			IOFraction:   math.Float64frombits(binary.LittleEndian.Uint64(c[8:])),
			MsgWords:     int(binary.LittleEndian.Uint32(c[16:])),
		}
	}
	return ws.validate()
}

// appendBinaryQuery encodes a validated query in the request format,
// with an in-band trace block when tc names a trace. It grows dst once,
// to the frame's length, and writes the frame in place.
func appendBinaryQuery(dst []byte, q *query, tc obs.TraceContext) []byte {
	payload := 4 + len(q.cs)*binContenderBytes
	kind, flags := byte(binKindComp), byte(0)
	if tc.Valid() {
		payload += binTraceBytes
		flags |= binFlagTrace
	}
	if q.kind == "comm" {
		kind = binKindComm
		payload += 2 + len(q.sets)*binDataSetBytes
		if q.dir == core.BackToHost {
			flags |= binFlagDirToHost
		}
	} else {
		payload += 8
		if q.hasJ {
			payload += 4
			flags |= binFlagHasJ
		}
	}
	n := len(dst)
	dst = slices.Grow(dst, 4+payload)[:n+4+payload]
	b := dst[n:]
	le := binary.LittleEndian
	le.PutUint32(b, uint32(payload))
	b[4], b[5], b[6], b[7] = binVersion, kind, flags, byte(len(q.cs))
	b = b[8:]
	if tc.Valid() {
		le.PutUint64(b, tc.TraceID)
		le.PutUint64(b[8:], tc.SpanID)
		b[16] = 0
		if tc.Sampled {
			b[16] = 1
		}
		b = b[binTraceBytes:]
	}
	if q.kind == "comm" {
		le.PutUint16(b, uint16(len(q.sets)))
		b = b[2:]
		for _, s := range q.sets {
			le.PutUint32(b, uint32(s.N))
			le.PutUint32(b[4:], uint32(s.Words))
			b = b[binDataSetBytes:]
		}
	} else {
		le.PutUint64(b, math.Float64bits(q.dcomp))
		b = b[8:]
		if q.hasJ {
			le.PutUint32(b, uint32(q.j))
			b = b[4:]
		}
	}
	for _, c := range q.cs {
		le.PutUint64(b, math.Float64bits(c.CommFraction))
		le.PutUint64(b[8:], math.Float64bits(c.IOFraction))
		le.PutUint32(b[16:], uint32(c.MsgWords))
		b = b[binContenderBytes:]
	}
	return dst
}

// AppendBinaryRequest validates req and appends its binary encoding to
// dst — the client-side counterpart of the server's binary decoder
// (used by cmd/loadgen and the round-trip tests). The validator is the
// server's own, so a request that encodes is one both wires accept:
// every count fits its u32 field, and the contender count after
// P-replication fits its one byte (MaxContenders is 64).
func AppendBinaryRequest(dst []byte, req *Request) ([]byte, error) {
	return AppendBinaryRequestTraced(dst, req, obs.TraceContext{})
}

// AppendBinaryRequestTraced is AppendBinaryRequest with an in-band
// trace block, so binary clients propagate trace context without an
// extra header pass. A zero tc encodes identically to
// AppendBinaryRequest.
func AppendBinaryRequestTraced(dst []byte, req *Request, tc obs.TraceContext) ([]byte, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.load(req); err != nil {
		return nil, err
	}
	return appendBinaryQuery(dst, &ws.q, tc), nil
}

// AppendBinaryResponse encodes one response in the response format.
func AppendBinaryResponse(dst []byte, resp Response) []byte {
	reason := resp.Reason
	if len(reason) > math.MaxUint16 {
		reason = reason[:math.MaxUint16]
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(16+len(reason)))
	var flags byte
	if resp.Degraded {
		flags |= binRespDegraded
	}
	if resp.Fast {
		flags |= binRespFast
	}
	dst = append(dst, binVersion, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(reason)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(resp.Value))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(resp.Batch))
	return append(dst, reason...)
}

// ErrBinaryResponse reports a malformed binary response payload.
var ErrBinaryResponse = errors.New("serve: malformed binary response")

// DecodeBinaryResponse parses one length-prefixed binary response.
func DecodeBinaryResponse(b []byte) (Response, error) {
	if len(b) < 4 {
		return Response{}, ErrBinaryResponse
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != n || n < 16 {
		return Response{}, ErrBinaryResponse
	}
	if b[0] != binVersion {
		return Response{}, ErrBinaryResponse
	}
	flags := b[1]
	reasonLen := int(binary.LittleEndian.Uint16(b[2:]))
	if n != 16+reasonLen {
		return Response{}, ErrBinaryResponse
	}
	return Response{
		Value:    math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		Batch:    int(binary.LittleEndian.Uint32(b[12:])),
		Degraded: flags&binRespDegraded != 0,
		Fast:     flags&binRespFast != 0,
		Reason:   string(b[16:]),
	}, nil
}
