// Frame connections. A router in front of several daemons keeps one
// persistent connection per daemon and multiplexes every prediction it
// forwards over it, instead of making one HTTP exchange per request. The
// connection is opened with an HTTP Upgrade on the daemon's own address
// (GET /v1/frames, answered 101), so it needs no listener, flag or port
// of its own. From then on both directions carry length-prefixed frames
// (all integers little-endian):
//
// Request frame:
//
//	u32  frame length (bytes after this prefix; capped at MaxBodyBytes)
//	u64  call id (non-zero; chosen by the caller, echoed in the answer)
//	u64  budget in microseconds (0: none sent)
//	u16  request id length (at most MaxRequestIDBytes), then its bytes
//	     the binary request record, its own u32 length prefix included
//	     (the per-attempt trace context rides in its 0x80 trace block)
//
// Response frame:
//
//	u32  frame length (capped at MaxBodyBytes)
//	u64  call id
//	u16  HTTP status
//	     the binary response record on 200, the JSON error envelope
//	     otherwise
//
// Answers go out in completion order, not arrival order; the call id is
// what pairs them. A frame that breaks the framing (over the cap,
// truncated, a zero id, an oversized request id, bytes after the
// record) ends the connection, since the stream can no longer be
// trusted; a well-framed record that fails validation is answered
// in-frame with the same 4xx the HTTP wire gives (FuzzReadFrame).
package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contention/internal/obs"
)

// FrameProtocol is the Upgrade token of GET /v1/frames.
const FrameProtocol = "contention-frames/1"

// MaxRequestIDBytes bounds the request id a request frame carries.
const MaxRequestIDBytes = 1024

const (
	reqFrameHead  = 4 + 8 + 8 + 2 // length, id, budget, request id length
	respFrameHead = 4 + 8 + 2     // length, id, status
	// frameBufSize sizes the buffered reader on each end of a frame
	// connection: a few frames per read, not a pooled 64 KiB body.
	frameBufSize = 4096
	// maxBudgetMicros is the largest budget a time.Duration can hold.
	maxBudgetMicros = math.MaxInt64 / int64(time.Microsecond)
	// maxFramesInFlight bounds the frames one connection answers at once
	// — as many as a default server admits and queues; past it the
	// reader waits, and the caller's writes back up into TCP.
	maxFramesInFlight = DefaultMaxInFlight + DefaultMaxQueue
)

// ErrFrame reports a frame that breaks the framing.
var ErrFrame = errors.New("serve: malformed frame")

// Frame is one request frame as ServeFrames hands it to a handler. The
// slices are valid until the handler returns.
type Frame struct {
	// ID is the caller's call id.
	ID uint64
	// Budget is the caller's remaining time for this call (0: none sent).
	Budget time.Duration
	// RID is the request id (empty: none sent).
	RID []byte
	// Record is the binary request record, its length prefix included.
	Record []byte

	ws *workspace // the pooled memory the frame was read into
}

// A FrameHandler answers one request frame: it appends the answer's
// body — the binary response record on 200, the JSON error envelope
// otherwise — to dst and returns the status and the extended slice.
// ctx ends when the connection does.
type FrameHandler func(ctx context.Context, f *Frame, dst []byte) (status int, body []byte)

// readRequestFrame reads one request frame from r into ws.buf and parses
// it into ws.frame, whose slices alias ws.buf.
func (ws *workspace) readRequestFrame(r io.Reader) error {
	b, err := readFrame(r, ws.buf, reqFrameHead)
	ws.buf = b
	if err != nil {
		return err
	}
	f := &ws.frame
	*f = Frame{ws: ws}
	le := binary.LittleEndian
	f.ID = le.Uint64(b[4:])
	us := le.Uint64(b[12:])
	ridLen := int(le.Uint16(b[20:]))
	if f.ID == 0 {
		return fmt.Errorf("%w: zero call id", ErrFrame)
	}
	if us > uint64(maxBudgetMicros) {
		return fmt.Errorf("%w: budget %d µs overflows", ErrFrame, us)
	}
	f.Budget = time.Duration(us) * time.Microsecond
	if ridLen > MaxRequestIDBytes {
		return fmt.Errorf("%w: request id of %d bytes exceeds %d", ErrFrame, ridLen, MaxRequestIDBytes)
	}
	rest := b[reqFrameHead:]
	if len(rest) < ridLen+4 {
		return fmt.Errorf("%w: %d bytes cannot hold a %d-byte request id and a record", ErrFrame, len(rest), ridLen)
	}
	f.RID, rest = rest[:ridLen], rest[ridLen:]
	if n := le.Uint32(rest); int64(n) != int64(len(rest)-4) {
		return fmt.Errorf("%w: record declares %d bytes, frame holds %d", ErrFrame, n, len(rest)-4)
	}
	f.Record = rest
	return nil
}

// readFrame reads one length-prefixed frame of at least head bytes,
// prefix included, into buf (grown as needed) and returns it.
func readFrame(r io.Reader, buf []byte, head int) ([]byte, error) {
	buf = slices.Grow(buf[:0], head)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxBodyBytes {
		return buf, fmt.Errorf("%w: %d bytes exceeds %d", ErrFrame, n, MaxBodyBytes)
	}
	if int(n) < head-4 {
		return buf, fmt.Errorf("%w: %d bytes cannot hold the %d-byte header", ErrFrame, n, head-4)
	}
	buf = slices.Grow(buf, int(n))[:4+n]
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, fmt.Errorf("%w: truncated: %v", ErrFrame, err)
	}
	return buf, nil
}

// AppendRequestFrame appends one request frame to dst: call id, budget,
// request id and the binary request record rec (as RecordOf appends
// it, with no trace block), into which the trace context tc is spliced
// when it names a trace. The budget goes out in whole microseconds,
// rounded down — never more than the caller has — but at least 1 while
// any time is left, so a short budget is never mistaken for none. rid
// must not exceed MaxRequestIDBytes.
func AppendRequestFrame(dst []byte, id uint64, budget time.Duration, rid string, rec []byte, tc obs.TraceContext) []byte {
	us := int64(budget / time.Microsecond)
	if budget > 0 && us == 0 {
		us = 1
	}
	n := reqFrameHead - 4 + len(rid) + len(rec)
	if tc.Valid() {
		n += binTraceBytes
	}
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(n))
	dst = le.AppendUint64(dst, id)
	dst = le.AppendUint64(dst, uint64(max(us, 0)))
	dst = le.AppendUint16(dst, uint16(len(rid)))
	dst = append(dst, rid...)
	if !tc.Valid() || len(rec) < 8 {
		return append(dst, rec...)
	}
	// rec is u32 length, then version, kind, flags, count: the trace
	// block goes right after those four bytes.
	dst = le.AppendUint32(dst, le.Uint32(rec)+binTraceBytes)
	dst = append(dst, rec[4], rec[5], rec[6]|binFlagTrace, rec[7])
	dst = le.AppendUint64(dst, tc.TraceID)
	dst = le.AppendUint64(dst, tc.SpanID)
	var sampled byte
	if tc.Sampled {
		sampled = 1
	}
	dst = append(dst, sampled)
	return append(dst, rec[8:]...)
}

// ReadResponseFrame reads one response frame from r into buf (grown as
// needed) and returns its call id, status and body; body aliases the
// returned buffer.
func ReadResponseFrame(r io.Reader, buf []byte) (id uint64, status int, body, b []byte, err error) {
	b, err = readFrame(r, buf, respFrameHead)
	if err != nil {
		return 0, 0, nil, b, err
	}
	id = binary.LittleEndian.Uint64(b[4:])
	status = int(binary.LittleEndian.Uint16(b[12:]))
	if id == 0 || status < 100 || status > 999 {
		return 0, 0, nil, b, fmt.Errorf("%w: call id %d, status %d", ErrFrame, id, status)
	}
	return id, status, b[respFrameHead:], b, nil
}

// DialFrames opens a frame connection to the daemon at addr: the TCP
// dial under ctx, then the GET /v1/frames upgrade, both by deadline. The
// returned reader holds whatever the daemon sent past its 101.
func DialFrames(ctx context.Context, addr string, deadline time.Time) (net.Conn, *bufio.Reader, error) {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	// Deadline errors mean a closed connection, which the I/O reports.
	_ = conn.SetDeadline(deadline)
	br := bufio.NewReaderSize(conn, frameBufSize)
	_, err = io.WriteString(conn, "GET /v1/frames HTTP/1.1\r\nHost: "+addr+
		"\r\nConnection: Upgrade\r\nUpgrade: "+FrameProtocol+"\r\n\r\n")
	if err == nil {
		var resp *http.Response
		if resp, err = http.ReadResponse(br, nil); err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
			err = fmt.Errorf("frames upgrade refused: %s", resp.Status)
		}
	}
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("frames upgrade at %s: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// frameConn is the daemon's end of one frame connection.
type frameConn struct {
	conn   net.Conn
	br     *bufio.Reader
	ctx    context.Context
	cancel context.CancelFunc
	wmu    sync.Mutex
	calls  sync.WaitGroup // frames being answered
	slots  chan struct{}  // one per frame being answered, up to maxFramesInFlight
	// draining is set by Server.Close: the reader stops, but the frames
	// already read are answered before the connection closes.
	draining atomic.Bool
}

// upgrade answers GET /v1/frames with 101 and takes the connection over
// from net/http. It clears any deadline the server set while reading
// the request, since a frame connection idles between calls. On failure
// the error has been answered and nil returned.
func upgrade(w http.ResponseWriter, r *http.Request) *frameConn {
	if !strings.EqualFold(r.Header.Get("Upgrade"), FrameProtocol) {
		w.Header().Set("Upgrade", FrameProtocol)
		WriteError(w, http.StatusUpgradeRequired, "GET /v1/frames needs Upgrade: "+FrameProtocol, "")
		return nil
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "frames upgrade: "+err.Error(), "")
		return nil
	}
	// A deadline that cannot be cleared means a closed connection, which
	// the write below reports.
	_ = conn.SetDeadline(time.Time{})
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+FrameProtocol+"\r\n\r\n"); err != nil {
		conn.Close()
		return nil
	}
	fc := &frameConn{conn: conn, br: brw.Reader, slots: make(chan struct{}, maxFramesInFlight)}
	fc.ctx, fc.cancel = context.WithCancel(r.Context())
	return fc
}

// ServeFrames upgrades r to a frame connection and answers every request
// frame on it with h, each on its own goroutine, until the connection
// ends; it returns once every answer has been written. Server.Handler
// serves GET /v1/frames with it; a stand-in replica can do the same.
func ServeFrames(w http.ResponseWriter, r *http.Request, h FrameHandler) {
	if fc := upgrade(w, r); fc != nil {
		fc.serve(h)
	}
}

// serve is the connection's read loop. A read that fails ends it; the
// frames already read are answered — with their contexts canceled
// unless the server is draining — and the connection is closed.
func (fc *frameConn) serve(h FrameHandler) {
	for {
		ws := getWorkspace()
		if err := ws.readRequestFrame(fc.br); err != nil {
			putWorkspace(ws)
			break
		}
		fc.slots <- struct{}{}
		fc.calls.Add(1)
		go fc.answer(ws, h)
	}
	if !fc.draining.Load() {
		fc.cancel()
	}
	fc.calls.Wait()
	fc.cancel()
	fc.conn.Close()
}

// answer runs h on the frame read into ws and writes the response frame.
func (fc *frameConn) answer(ws *workspace, h FrameHandler) {
	defer func() {
		<-fc.slots
		fc.calls.Done()
	}()
	id := ws.frame.ID
	status, out := h(fc.ctx, &ws.frame, append(ws.out[:0], make([]byte, respFrameHead)...))
	le := binary.LittleEndian
	le.PutUint32(out, uint32(len(out)-4))
	le.PutUint64(out[4:], id)
	le.PutUint16(out[12:], uint16(status))
	fc.wmu.Lock()
	_, err := fc.conn.Write(out)
	fc.wmu.Unlock()
	if err != nil {
		fc.conn.Close() // the reader sees it and ends the loop
	}
	ws.out = out
	putWorkspace(ws)
}

// drain stops the read loop without canceling the frames it has read:
// they are answered, then the connection closes.
func (fc *frameConn) drain() {
	fc.draining.Store(true)
	_ = fc.conn.SetReadDeadline(time.Now())
}

// handleFrames is GET /v1/frames: the frame connection is the Server's
// until Close, which answers the frames in flight before closing it.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	fc := upgrade(w, r)
	if fc == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		fc.cancel()
		fc.conn.Close()
		return
	}
	if s.frames == nil {
		s.frames = map[*frameConn]struct{}{}
	}
	s.frames[fc] = struct{}{}
	s.frameLoops.Add(1)
	s.mu.Unlock()
	defer s.frameLoops.Done()
	fc.serve(s.answerFrame)
	s.mu.Lock()
	delete(s.frames, fc)
	s.mu.Unlock()
}

// closeFrames drains every frame connection and waits until each has
// answered what it read and closed. Caller has set s.closed.
func (s *Server) closeFrames() {
	s.mu.Lock()
	for fc := range s.frames {
		fc.drain()
	}
	s.mu.Unlock()
	s.frameLoops.Wait()
}

// answerFrame is the Server's FrameHandler: the frame's record runs
// through the same decode → admit → evaluate → encode core as POST
// /v1/predict, bounded by the frame's budget.
func (s *Server) answerFrame(ctx context.Context, f *Frame, dst []byte) (int, []byte) {
	ws := f.ws
	start := time.Now()
	ws.tc = obs.TraceContext{}
	err := ws.decodeBinaryFrame(f.Record)
	timeout := s.cfg.Timeout
	if f.Budget > 0 && f.Budget < timeout {
		timeout = f.Budget
	}
	resp, rt, err := s.servePredict(ctx, ws, start, err, "", timeout)
	encStart := s.finished(start, err)
	status := http.StatusOK
	if err != nil {
		status = errorStatus(err)
		b, _ := json.Marshal(ErrorBody{Error: err.Error(), RequestID: ErrorID(string(f.RID))})
		dst = append(append(dst, b...), '\n')
	} else {
		dst = AppendBinaryResponse(dst, resp)
	}
	s.encoded(rt, encStart)
	return status, dst
}
