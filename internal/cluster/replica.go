package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"contention/internal/caltrust"
	"contention/internal/core"
	"contention/internal/runner"
	"contention/internal/serve"
)

// Replica is one running prediction backend the cluster supervises and
// routes to. Implementations: InProcReplica (a serve.Server inside this
// process, on a loopback port) and ExecReplica (a child-process
// contentiond).
type Replica interface {
	// Addr is the host:port serving the prediction API.
	Addr() string
	// Done is closed when the replica dies — listener teardown or child
	// process exit. The supervisor watches it to schedule a restart.
	Done() <-chan struct{}
	// Close drains and stops the replica gracefully within ctx.
	Close(ctx context.Context) error
	// Kill tears the replica down abruptly (fail-stop): in-flight
	// connections are severed, nothing is drained.
	Kill()
}

// Factory builds incarnation gen of replica id. The supervisor calls it
// once at spawn and again after every crash; gen starts at 0 and
// increments per restart.
type Factory func(id, gen int) (Replica, error)

// InProcConfig parameterizes InProcessFactory replicas. Zero fields
// take the serve defaults.
type InProcConfig struct {
	// Cal is the calibration every incarnation serves; nil selects
	// serve.SyntheticCalibration.
	Cal *core.Calibration
	// Window is the batching window, passed through to serve.Config.
	Window time.Duration
}

// InProcReplica is a serve.Server on a loopback listener inside this
// process — the deployment shape for single-binary clusters and the
// harness the chaos gate drives.
type InProcReplica struct {
	addr string
	srv  *serve.Server
	hs   *http.Server
	pred *core.Predictor
	done chan struct{}
	host *hostListener
	once sync.Once
}

// InProcessFactory returns a Factory spawning in-process replicas.
func InProcessFactory(cfg InProcConfig) Factory {
	return func(id, gen int) (Replica, error) {
		cal := serve.SyntheticCalibration()
		if cfg.Cal != nil {
			cal = *cfg.Cal
		}
		pred := core.NewPredictorLenient(cal)
		tracker, err := caltrust.NewTracker(pred, caltrust.DefaultTrackerConfig())
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d/%d tracker: %w", id, gen, err)
		}
		srv, err := serve.New(serve.Config{
			Pred:    pred,
			Tracker: tracker,
			Pool:    runner.New(0),
			Window:  cfg.Window,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d/%d serve: %w", id, gen, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("cluster: replica %d/%d listen: %w", id, gen, err)
		}
		r := &InProcReplica{
			addr: ln.Addr().String(),
			srv:  srv,
			pred: pred,
			done: make(chan struct{}),
			host: &hostListener{Listener: ln, conns: map[*hostConn]struct{}{}},
		}
		r.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			_ = r.hs.Serve(r.host)
			close(r.done)
		}()
		return r, nil
	}
}

// Addr implements Replica.
func (r *InProcReplica) Addr() string { return r.addr }

// Done implements Replica.
func (r *InProcReplica) Done() <-chan struct{} { return r.done }

// Close implements Replica: readiness off, in-flight requests finish
// within ctx, parked batches flush, then the listener closes.
func (r *InProcReplica) Close(ctx context.Context) error {
	var err error
	r.once.Do(func() {
		r.srv.Drain()
		err = r.hs.Shutdown(ctx)
		r.srv.Close()
	})
	return err
}

// Kill implements Replica: fail-stop. The listener and every open
// connection — frame connections included, which net/http no longer
// tracks once upgraded — are severed immediately; callers mid-request
// see resets.
func (r *InProcReplica) Kill() {
	r.once.Do(func() {
		r.host.sever()
		_ = r.hs.Close()
		r.srv.Close()
	})
}

// hostListener is an in-process replica host's network edge. It tracks
// every connection it accepted, so a kill can sever them all.
type hostListener struct {
	net.Listener

	mu    sync.Mutex
	conns map[*hostConn]struct{}
}

// hostConn is one accepted connection.
type hostConn struct {
	net.Conn
	host *hostListener
}

func (l *hostListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	hc := &hostConn{Conn: c, host: l}
	l.mu.Lock()
	l.conns[hc] = struct{}{}
	l.mu.Unlock()
	return hc, nil
}

// sever closes every connection the host accepted.
func (l *hostListener) sever() {
	l.mu.Lock()
	conns := make([]*hostConn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (c *hostConn) Close() error {
	c.host.mu.Lock()
	delete(c.host.conns, c)
	c.host.mu.Unlock()
	return c.Conn.Close()
}

// ExecReplica is a child-process contentiond. The supervisor learns the
// dynamically bound port from the daemon's startup banner.
type ExecReplica struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	once sync.Once
}

// ExecFactory returns a Factory spawning contentiond child processes
// from the given binary, with extraArgs appended after -addr.
func ExecFactory(bin string, extraArgs ...string) Factory {
	return func(id, gen int) (Replica, error) {
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d/%d stderr: %w", id, gen, err)
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("cluster: replica %d/%d start: %w", id, gen, err)
		}
		addr, err := scanAddr(stderr, 5*time.Second)
		if err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("cluster: replica %d/%d: %w", id, gen, err)
		}
		r := &ExecReplica{cmd: cmd, addr: addr, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait()
			close(r.done)
		}()
		return r, nil
	}
}

// scanAddr reads the daemon's startup banner ("contentiond on
// http://HOST:PORT ...") off stderr, then keeps draining the pipe in
// the background so the child never blocks on a full pipe.
func scanAddr(stderr io.Reader, timeout time.Duration) (string, error) {
	type res struct {
		addr string
		err  error
	}
	ch := make(chan res, 1)
	br := bufio.NewReader(stderr)
	go func() {
		for {
			line, err := br.ReadString('\n')
			if i := strings.Index(line, "on http://"); i >= 0 {
				rest := line[i+len("on http://"):]
				if j := strings.IndexAny(rest, " \n"); j >= 0 {
					rest = rest[:j]
				}
				ch <- res{addr: rest}
				go func() { _, _ = io.Copy(io.Discard, br) }()
				return
			}
			if err != nil {
				ch <- res{err: fmt.Errorf("banner not found before stderr closed: %w", err)}
				return
			}
		}
	}()
	select {
	case r := <-ch:
		return r.addr, r.err
	case <-time.After(timeout):
		return "", errors.New("timed out waiting for startup banner")
	}
}

// Addr implements Replica.
func (r *ExecReplica) Addr() string { return r.addr }

// Done implements Replica.
func (r *ExecReplica) Done() <-chan struct{} { return r.done }

// Close implements Replica: SIGTERM (the daemon drains), escalating to
// SIGKILL if the child outlives ctx.
func (r *ExecReplica) Close(ctx context.Context) error {
	var err error
	r.once.Do(func() {
		err = r.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-r.done:
		case <-ctx.Done():
			_ = r.cmd.Process.Kill()
			err = ctx.Err()
		}
	})
	return err
}

// Kill implements Replica: SIGKILL, fail-stop.
func (r *ExecReplica) Kill() {
	r.once.Do(func() { _ = r.cmd.Process.Kill() })
}
