// Trace format contention/trace/v1: a checksummed header plus
// length-prefixed binary records, recording a schedule of wire-encoded
// prediction requests — and, when recording served traffic, the
// response each one received. The format is the bridge between the
// three drivers that consume structured load: cmd/loadgen records live
// traffic and replays it open-loop, the DES-clocked experiments driver
// replays the same trace on virtual time against the model core, and
// the replay-differential tests assert the served stack reproduces a
// recorded run bit-for-bit.
//
// Layout (all integers little-endian):
//
//	u32  magic "CTRC"
//	u32  header length (JSON bytes; capped at maxHeaderBytes)
//	     header JSON: {"schema","seed","scenario","horizon_ms","format","served"}
//	u64  FNV-1a checksum of the header JSON
//	then zero or more records:
//	u32  frame length (bytes between this prefix and the checksum)
//	     u64  arrival offset, nanoseconds from run start
//	     u8   cohort-name length, cohort bytes
//	     u32  request length, wire request bytes (header Format decides
//	          whether they are JSON or the binary predict format)
//	     u8   flags (bit0: response follows)
//	     f64  response value      ┐
//	     u32  batch size          │ present when
//	     u16  HTTP status         │ flags bit0
//	     u8   rflags (bit0 degraded, bit1 fast)
//	     u16  reason length, reason bytes ┘
//	u32  FNV-1a (32-bit) checksum of the frame
//
// Every structural fault — bad magic, unknown schema, checksum
// mismatch, truncation, over-long or inconsistent lengths — surfaces as
// a typed error wrapping one of the Err sentinels below; the decoder
// never panics and never reads past a declared length
// (FuzzReadTraceHeader / FuzzDecodeTraceRecord).
package scenario

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"contention/internal/serve"
)

// TraceSchema is the schema-version string stamped into every header.
const TraceSchema = "contention/trace/v1"

// Wire formats a trace can carry request bytes in.
const (
	FormatJSON   = "json"
	FormatBinary = "binary"
)

const (
	traceMagic     = 0x43525443 // "CTRC" little-endian
	maxHeaderBytes = 1 << 16
	maxRecordBytes = serve.MaxBodyBytes + 1<<10 // one request + record overhead
	maxCohortBytes = 255

	recFlagResponse = 1
	recRespDegraded = 1
	recRespFast     = 2
)

// Typed trace faults. Readers wrap these, so errors.Is works through
// the added context.
var (
	// ErrTraceMagic reports a stream that is not a trace at all.
	ErrTraceMagic = errors.New("scenario: not a contention trace (bad magic)")
	// ErrTraceSchema reports an unknown schema version in the header.
	ErrTraceSchema = errors.New("scenario: unsupported trace schema")
	// ErrTraceChecksum reports header or record checksum mismatch.
	ErrTraceChecksum = errors.New("scenario: trace checksum mismatch")
	// ErrTraceCorrupt reports structural damage: truncation, over-long
	// declared lengths, or inconsistent framing.
	ErrTraceCorrupt = errors.New("scenario: corrupt trace")
)

// TraceHeader identifies a trace: where its schedule came from and how
// its request bytes are encoded.
type TraceHeader struct {
	Schema string `json:"schema"`
	// Seed is the scenario seed the schedule was generated from.
	Seed int64 `json:"seed"`
	// Scenario is the canonical scenario spec string ("" for traces
	// recorded from non-scenario traffic).
	Scenario string `json:"scenario,omitempty"`
	// HorizonMS is the schedule horizon in milliseconds.
	HorizonMS int64 `json:"horizon_ms,omitempty"`
	// Format is the wire format of the record request bytes: FormatJSON
	// or FormatBinary.
	Format string `json:"format"`
	// Served marks a trace recorded from served traffic (records carry
	// responses), as opposed to a bare generated schedule.
	Served bool `json:"served,omitempty"`
}

// Record is one trace entry: a timestamped wire request and, in served
// traces, the response it received.
type Record struct {
	Offset time.Duration
	Cohort string
	// Req is the wire-encoded request body, verbatim.
	Req []byte
	// HasResp marks records carrying a served response.
	HasResp bool
	// Status is the HTTP status the request received (0 = transport
	// failure, no response recorded).
	Status int
	// Resp carries value/degraded/fast/batch/reason for 200 responses.
	Resp serve.Response
}

// marshalJSONRequest renders a request as the JSON wire body. Go's
// json.Marshal is deterministic for struct values (fields in
// declaration order), so equal requests always produce equal bytes —
// the property trace byte-determinism rests on.
func marshalJSONRequest(req *serve.Request) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding request: %w", err)
	}
	return b, nil
}

// --- writer -----------------------------------------------------------------

// TraceWriter streams records to w. Writes are buffered; call Flush
// before reading the destination.
type TraceWriter struct {
	w   *bufio.Writer
	buf []byte
	n   int
}

// NewTraceWriter writes the checksummed header and returns a writer.
// An empty hdr.Schema is stamped with TraceSchema; the format must be
// FormatJSON or FormatBinary.
func NewTraceWriter(w io.Writer, hdr TraceHeader) (*TraceWriter, error) {
	if hdr.Schema == "" {
		hdr.Schema = TraceSchema
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("%w: %q", ErrTraceSchema, hdr.Schema)
	}
	if hdr.Format != FormatJSON && hdr.Format != FormatBinary {
		return nil, fmt.Errorf("scenario: trace format %q must be %q or %q", hdr.Format, FormatJSON, FormatBinary)
	}
	js, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding trace header: %w", err)
	}
	if len(js) > maxHeaderBytes {
		return nil, fmt.Errorf("%w: header is %d bytes (max %d)", ErrTraceCorrupt, len(js), maxHeaderBytes)
	}
	bw := bufio.NewWriter(w)
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[0:], traceMagic)
	binary.LittleEndian.PutUint32(pre[4:], uint32(len(js)))
	if _, err := bw.Write(pre[:]); err != nil {
		return nil, err
	}
	if _, err := bw.Write(js); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(js)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	if _, err := bw.Write(sum[:]); err != nil {
		return nil, err
	}
	return &TraceWriter{w: bw}, nil
}

// Write appends one record.
func (tw *TraceWriter) Write(rec *Record) error {
	if len(rec.Cohort) > maxCohortBytes {
		return fmt.Errorf("scenario: cohort name %d bytes exceeds %d", len(rec.Cohort), maxCohortBytes)
	}
	if rec.Offset < 0 {
		return fmt.Errorf("scenario: negative record offset %v", rec.Offset)
	}
	frame := marshalRecord(tw.buf[:0], rec)
	if len(frame) > maxRecordBytes {
		return fmt.Errorf("%w: record frame is %d bytes (max %d)", ErrTraceCorrupt, len(frame), maxRecordBytes)
	}
	tw.buf = frame
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(len(frame)))
	if _, err := tw.w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := tw.w.Write(frame); err != nil {
		return err
	}
	h := fnv.New32a()
	h.Write(frame)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], h.Sum32())
	if _, err := tw.w.Write(sum[:]); err != nil {
		return err
	}
	tw.n++
	return nil
}

// Count reports records written so far.
func (tw *TraceWriter) Count() int { return tw.n }

// Flush drains the write buffer.
func (tw *TraceWriter) Flush() error { return tw.w.Flush() }

// marshalRecord encodes the frame body (everything between the length
// prefix and the trailing checksum).
func marshalRecord(dst []byte, rec *Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Offset))
	dst = append(dst, byte(len(rec.Cohort)))
	dst = append(dst, rec.Cohort...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Req)))
	dst = append(dst, rec.Req...)
	if !rec.HasResp {
		return append(dst, 0)
	}
	dst = append(dst, recFlagResponse)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Resp.Value))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Resp.Batch))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(rec.Status))
	var rf byte
	if rec.Resp.Degraded {
		rf |= recRespDegraded
	}
	if rec.Resp.Fast {
		rf |= recRespFast
	}
	dst = append(dst, rf)
	reason := rec.Resp.Reason
	if len(reason) > 1<<16-1 {
		reason = reason[:1<<16-1]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(reason)))
	return append(dst, reason...)
}

// --- reader -----------------------------------------------------------------

// TraceReader streams records back out of a trace.
type TraceReader struct {
	r   *bufio.Reader
	hdr TraceHeader
	buf []byte
	n   int
}

// NewTraceReader parses and verifies the header. All failures wrap a
// typed sentinel.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	var pre [8]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: missing preamble: %v", ErrTraceCorrupt, err)
	}
	if binary.LittleEndian.Uint32(pre[0:]) != traceMagic {
		return nil, ErrTraceMagic
	}
	n := binary.LittleEndian.Uint32(pre[4:])
	if n > maxHeaderBytes {
		return nil, fmt.Errorf("%w: header declares %d bytes (max %d)", ErrTraceCorrupt, n, maxHeaderBytes)
	}
	js := make([]byte, n)
	if _, err := io.ReadFull(br, js); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrTraceCorrupt, err)
	}
	var sum [8]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header checksum: %v", ErrTraceCorrupt, err)
	}
	h := fnv.New64a()
	h.Write(js)
	if h.Sum64() != binary.LittleEndian.Uint64(sum[:]) {
		return nil, fmt.Errorf("%w: header", ErrTraceChecksum)
	}
	var hdr TraceHeader
	if err := json.Unmarshal(js, &hdr); err != nil {
		return nil, fmt.Errorf("%w: header JSON: %v", ErrTraceCorrupt, err)
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("%w: %q (want %q)", ErrTraceSchema, hdr.Schema, TraceSchema)
	}
	if hdr.Format != FormatJSON && hdr.Format != FormatBinary {
		return nil, fmt.Errorf("%w: unknown wire format %q", ErrTraceCorrupt, hdr.Format)
	}
	return &TraceReader{r: br, hdr: hdr}, nil
}

// Header returns the verified trace header.
func (tr *TraceReader) Header() TraceHeader { return tr.hdr }

// Next returns the next record, or io.EOF at a clean end of stream.
// The record's byte slices are private copies; callers may retain them.
func (tr *TraceReader) Next() (Record, error) {
	var pre [4]byte
	if _, err := io.ReadFull(tr.r, pre[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: truncated record prefix: %v", ErrTraceCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(pre[:])
	if n > maxRecordBytes {
		return Record{}, fmt.Errorf("%w: record declares %d bytes (max %d)", ErrTraceCorrupt, n, maxRecordBytes)
	}
	if cap(tr.buf) < int(n) {
		tr.buf = make([]byte, n)
	}
	frame := tr.buf[:n]
	if _, err := io.ReadFull(tr.r, frame); err != nil {
		return Record{}, fmt.Errorf("%w: truncated record (%d declared bytes): %v", ErrTraceCorrupt, n, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(tr.r, sum[:]); err != nil {
		return Record{}, fmt.Errorf("%w: truncated record checksum: %v", ErrTraceCorrupt, err)
	}
	h := fnv.New32a()
	h.Write(frame)
	if h.Sum32() != binary.LittleEndian.Uint32(sum[:]) {
		return Record{}, fmt.Errorf("%w: record %d", ErrTraceChecksum, tr.n)
	}
	rec, err := unmarshalRecord(frame)
	if err != nil {
		return Record{}, err
	}
	tr.n++
	return rec, nil
}

// unmarshalRecord decodes one frame body. Every read is bounds-checked
// against the frame, so a hostile length field can never over-read.
func unmarshalRecord(b []byte) (Record, error) {
	var rec Record
	if len(b) < 9 {
		return rec, fmt.Errorf("%w: record frame %d bytes, want ≥9", ErrTraceCorrupt, len(b))
	}
	off := binary.LittleEndian.Uint64(b)
	if off > uint64(1<<62) {
		return rec, fmt.Errorf("%w: absurd record offset %d ns", ErrTraceCorrupt, off)
	}
	rec.Offset = time.Duration(off)
	cl := int(b[8])
	b = b[9:]
	if len(b) < cl {
		return rec, fmt.Errorf("%w: cohort name truncated (%d of %d bytes)", ErrTraceCorrupt, len(b), cl)
	}
	rec.Cohort = string(b[:cl])
	b = b[cl:]
	if len(b) < 4 {
		return rec, fmt.Errorf("%w: request length truncated", ErrTraceCorrupt)
	}
	rl := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if rl > serve.MaxBodyBytes {
		return rec, fmt.Errorf("%w: request declares %d bytes (max %d)", ErrTraceCorrupt, rl, serve.MaxBodyBytes)
	}
	if uint32(len(b)) < rl {
		return rec, fmt.Errorf("%w: request bytes truncated (%d of %d)", ErrTraceCorrupt, len(b), rl)
	}
	rec.Req = append([]byte(nil), b[:rl]...)
	b = b[rl:]
	if len(b) < 1 {
		return rec, fmt.Errorf("%w: record flags missing", ErrTraceCorrupt)
	}
	flags := b[0]
	b = b[1:]
	if flags&^byte(recFlagResponse) != 0 {
		return rec, fmt.Errorf("%w: unknown record flags %#x", ErrTraceCorrupt, flags)
	}
	if flags&recFlagResponse == 0 {
		if len(b) != 0 {
			return rec, fmt.Errorf("%w: %d trailing bytes after record", ErrTraceCorrupt, len(b))
		}
		return rec, nil
	}
	rec.HasResp = true
	if len(b) < 17 {
		return rec, fmt.Errorf("%w: response block truncated (%d of 17 fixed bytes)", ErrTraceCorrupt, len(b))
	}
	rec.Resp.Value = math.Float64frombits(binary.LittleEndian.Uint64(b))
	rec.Resp.Batch = int(binary.LittleEndian.Uint32(b[8:]))
	rec.Status = int(binary.LittleEndian.Uint16(b[12:]))
	rf := b[14]
	if rf&^byte(recRespDegraded|recRespFast) != 0 {
		return rec, fmt.Errorf("%w: unknown response flags %#x", ErrTraceCorrupt, rf)
	}
	rec.Resp.Degraded = rf&recRespDegraded != 0
	rec.Resp.Fast = rf&recRespFast != 0
	reasonLen := int(binary.LittleEndian.Uint16(b[15:]))
	b = b[17:]
	if len(b) != reasonLen {
		return rec, fmt.Errorf("%w: reason is %d bytes, declared %d", ErrTraceCorrupt, len(b), reasonLen)
	}
	rec.Resp.Reason = string(b)
	return rec, nil
}

// DecodeRequestBytes parses trace request bytes back into wire form,
// dispatching on the trace's wire format — the inverse of EncodeItem,
// used by the DES replay driver to evaluate recorded requests without
// an HTTP hop.
func DecodeRequestBytes(b []byte, format string) (*serve.Request, error) {
	switch format {
	case FormatJSON:
		return serve.DecodeRequest(bytes.NewReader(b))
	case FormatBinary:
		return serve.DecodeBinaryRequest(b)
	default:
		return nil, fmt.Errorf("scenario: unknown wire format %q (want %q or %q)", format, FormatJSON, FormatBinary)
	}
}

// ReadTrace reads a whole trace into memory.
func ReadTrace(r io.Reader) (TraceHeader, []Record, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return TraceHeader{}, nil, err
	}
	var recs []Record
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return tr.Header(), recs, nil
		}
		if err != nil {
			return tr.Header(), recs, err
		}
		recs = append(recs, rec)
	}
}

// WriteSchedule generates the scenario's schedule for (seed, horizon)
// and writes it as an unserved trace in the given wire format. Byte
// determinism — the same arguments always produce an identical file —
// is pinned by TestTraceByteDeterminism.
func WriteSchedule(w io.Writer, sc *Scenario, seed int64, horizon time.Duration, format string) (int, error) {
	items, err := sc.Schedule(seed, horizon)
	if err != nil {
		return 0, err
	}
	tw, err := NewTraceWriter(w, TraceHeader{
		Seed: seed, Scenario: sc.Spec(), HorizonMS: horizon.Milliseconds(), Format: format,
	})
	if err != nil {
		return 0, err
	}
	for _, it := range items {
		body, err := EncodeItem(it, format)
		if err != nil {
			return tw.Count(), err
		}
		if err := tw.Write(&Record{Offset: it.Offset, Cohort: it.Cohort, Req: body}); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}
