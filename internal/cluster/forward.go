package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"contention/internal/obs"
	"contention/internal/serve"
)

// The router's hop is a frame, not an HTTP request: each member
// incarnation has one frameClient, which holds at most one multiplexed
// frame connection (serve's GET /v1/frames upgrade) and dials it lazily
// on the first predict, and again after it breaks. A try takes a pooled
// call, registers it under a fresh call id, writes one request frame and
// waits on the call's own timer for the reader goroutine to hand it the
// matching response frame. A connection that fails fails every call
// pending on it as a transport error, so breaker and retry rules
// see exactly what a dropped HTTP connection showed them.

// errTryTimeout is a try that outlived its deadline: the per-try timeout
// or the request's own, whichever came first.
var errTryTimeout = errors.New("cluster: try deadline passed before the answer")

// errFramesClosed is a call on a member incarnation that has ended.
var errFramesClosed = errors.New("cluster: member incarnation closed")

// call is one try in flight on a frame connection, pooled with its
// buffers and its timer.
type call struct {
	id     uint64
	done   chan struct{} // one send per registered call: answer or failure
	status int
	body   []byte // the response frame's body
	out    []byte // the request frame, then the JSON transcoding of body
	err    error
	timer  serve.WaitTimer
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// maxPooledCallBuf is the largest buffer a pooled call keeps.
const maxPooledCallBuf = 16 << 10

func getCall() *call { return callPool.Get().(*call) }

// putCall recycles cl; nil is a no-op. Only a call nobody can still
// signal may be recycled.
func putCall(cl *call) {
	if cl == nil {
		return
	}
	cl.err = nil
	if cap(cl.body) > maxPooledCallBuf {
		cl.body = nil
	}
	if cap(cl.out) > maxPooledCallBuf {
		cl.out = nil
	}
	callPool.Put(cl)
}

// frameClient is the router's link to one member incarnation.
type frameClient struct {
	addr string

	mu     sync.Mutex
	cur    *frameConn    // the live connection, nil before the first dial and after a break
	dial   chan struct{} // closed when the dial in progress ends; nil when none is
	closed bool
	// readers counts reader goroutines, so close can wait them out.
	readers sync.WaitGroup
}

func newFrameClient(addr string) *frameClient { return &frameClient{addr: addr} }

// frameConn is one frame connection and the calls pending on it.
type frameConn struct {
	fc   *frameClient
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex // one frame written at a time

	mu      sync.Mutex
	pending map[uint64]*call
	next    uint64
	err     error // set once the connection has failed; no call registers after
}

// conn returns the live connection, dialling one when there is none.
// Concurrent callers wait for a dial in progress rather than racing it,
// bounded by their own deadline and context.
func (fc *frameClient) conn(ctx context.Context, deadline time.Time, expired <-chan struct{}) (*frameConn, error) {
	for {
		fc.mu.Lock()
		if fc.closed {
			fc.mu.Unlock()
			return nil, errFramesClosed
		}
		if c := fc.cur; c != nil {
			fc.mu.Unlock()
			return c, nil
		}
		if wait := fc.dial; wait != nil {
			fc.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-expired:
				return nil, errTryTimeout
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		dialing := make(chan struct{})
		fc.dial = dialing
		fc.mu.Unlock()

		conn, br, err := serve.DialFrames(ctx, fc.addr, deadline)
		fc.mu.Lock()
		fc.dial = nil
		close(dialing)
		if err == nil && fc.closed {
			conn.Close()
			err = errFramesClosed
		}
		if err != nil {
			fc.mu.Unlock()
			return nil, err
		}
		c := &frameConn{fc: fc, conn: conn, br: br, pending: map[uint64]*call{}}
		fc.cur = c
		fc.readers.Add(1)
		fc.mu.Unlock()
		go c.readLoop()
		return c, nil
	}
}

// close ends the incarnation's link: the live connection closes, its
// pending calls fail, and close returns once its reader has exited. A
// nil link (a member that is down) has nothing to close.
func (fc *frameClient) close() {
	if fc == nil {
		return
	}
	fc.mu.Lock()
	fc.closed = true
	c := fc.cur
	fc.mu.Unlock()
	if c != nil {
		c.conn.Close()
	}
	fc.readers.Wait()
}

// call sends the request frame for meta to the member and waits for its
// answer until deadline, on clock, or until ctx ends. On success the
// returned call holds the status and body; the caller recycles it with
// putCall.
func (fc *frameClient) call(ctx context.Context, clock obs.Clock, deadline time.Time, meta *reqMeta, tc obs.TraceContext) (*call, error) {
	cl := getCall()
	left := deadline.Sub(clock.Now())
	// The connection's own deadlines are wall time: the same budget.
	connDeadline := time.Now().Add(left)
	expired := cl.timer.Arm(clock, left)
	c, err := fc.conn(ctx, connDeadline, expired)
	if err == nil {
		err = c.register(cl)
	}
	if err != nil {
		cl.timer.Disarm(expired)
		putCall(cl)
		return nil, err
	}
	// The budget is the time this try has left, measured as it is sent.
	cl.out = serve.AppendRequestFrame(cl.out[:0], cl.id, deadline.Sub(clock.Now()), meta.rid, meta.rec, tc)
	c.wmu.Lock()
	// A member that stops reading holds the write, and every try queued
	// on wmu behind it, only until this try's deadline.
	_ = c.conn.SetWriteDeadline(connDeadline) // a failed set means a closed conn, which Write reports
	n, werr := c.conn.Write(cl.out)
	c.wmu.Unlock()
	if werr != nil {
		// A deadline that lapsed before the first byte went out leaves
		// the stream intact: only this try is withdrawn, and the calls
		// pending on the connection keep waiting for their answers. A
		// partial frame, or any other error, breaks the connection.
		if n == 0 && errors.Is(werr, os.ErrDeadlineExceeded) {
			cl.timer.Disarm(expired)
			c.abandon(cl)
			return nil, errTryTimeout
		}
		c.fail(werr) // answers our call, with every other pending one
	}
	select {
	case <-cl.done:
		cl.timer.Disarm(expired)
		if cl.err != nil {
			err := cl.err
			putCall(cl)
			return nil, err
		}
		return cl, nil
	case <-expired:
		cl.timer.Disarm(expired)
		c.abandon(cl)
		return nil, errTryTimeout
	case <-ctx.Done():
		cl.timer.Disarm(expired)
		c.abandon(cl)
		return nil, ctx.Err()
	}
}

// register gives cl the connection's next call id and makes it pending.
func (c *frameConn) register(cl *call) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.next++
	cl.id = c.next
	c.pending[cl.id] = cl
	return nil
}

// abandon withdraws a call its try stopped waiting for. A call the
// reader has already claimed is left to it (it will still signal), so
// only a withdrawn call goes back to the pool.
func (c *frameConn) abandon(cl *call) {
	c.mu.Lock()
	mine := c.pending[cl.id] == cl
	if mine {
		delete(c.pending, cl.id)
	}
	c.mu.Unlock()
	if mine {
		putCall(cl)
	}
}

// readLoop hands each response frame to the call it answers; an answer
// for a withdrawn call is dropped. It ends when the connection fails.
func (c *frameConn) readLoop() {
	defer c.fc.readers.Done()
	var buf []byte
	for {
		id, status, body, b, err := serve.ReadResponseFrame(c.br, buf)
		buf = b
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		cl := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if cl == nil {
			continue
		}
		cl.status = status
		cl.body = append(cl.body[:0], body...)
		cl.done <- struct{}{}
	}
}

// fail closes the connection and fails every call pending on it with
// one transport error; the next call dials afresh.
func (c *frameConn) fail(err error) {
	c.conn.Close()
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	c.err = fmt.Errorf("frame connection to %s: %w", c.fc.addr, err)
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.fc.mu.Lock()
	if c.fc.cur == c {
		c.fc.cur = nil
	}
	c.fc.mu.Unlock()
	for _, cl := range pending {
		cl.err = c.err
		cl.done <- struct{}{}
	}
}

// readLimited is io.ReadAll(io.LimitReader(r, limit)) into buf's
// memory, which is replaced only when it is too small: then by one
// buffer sized from the declared length when there is one (size < 0:
// unknown), so a body of known length is read with at most one
// allocation and no growth.
func readLimited(buf []byte, r io.Reader, size, limit int64) ([]byte, error) {
	c := int64(512)
	if size >= 0 && size < limit {
		c = size + 1 // room for the read that sees EOF
	}
	b := buf[:0]
	if int64(cap(b)) < c {
		b = make([]byte, 0, c)
	}
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
