package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chaosProxy is an in-process TCP chaos proxy: it sits between a
// router and one remote replica and does to the byte stream what a bad
// network does — added latency, mid-stream resets, stalls, and full
// partitions — under explicit, instantaneous control. Paired with
// PlanNetChaos it gives chaos gates a deterministic network: the
// plan is a pure function of one seed, the proxy applies each event the
// moment the driver replays it, and nothing in the fault path depends
// on kernel packet timing or external tooling (tc, iptables), so the
// same gate runs identically on a laptop and in CI.

// copyBuf is the relay chunk size: small enough that latency and stall
// shaping get a control point at least once per few KB, large enough
// not to dominate CPU.
const copyBuf = 8 << 10

// chaosProxy is one shaped link. Create with newChaosProxy, point
// clients at Addr, drive faults with SetLatency / Stall / Reset /
// Partition / Heal.
// All controls are goroutine-safe and take effect immediately.
type chaosProxy struct {
	target string
	ln     net.Listener

	latency    atomic.Int64 // one-way added delay, nanoseconds
	stallUntil atomic.Int64 // unix nanos; byte flow frozen until then
	parted     atomic.Bool

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool
	done   chan struct{} // closed by Close: a stall ends there

	wg sync.WaitGroup
}

// conn is one proxied client⇄target connection pair.
type conn struct {
	client, upstream *net.TCPConn
	once             sync.Once
}

// sever tears both halves down. rst controls whether the client side
// goes with a RST (SetLinger(0)) instead of a graceful FIN — resets and
// partitions should look like failures, not like the server finishing.
func (c *conn) sever(rst bool) {
	c.once.Do(func() {
		if rst {
			_ = c.client.SetLinger(0)
			_ = c.upstream.SetLinger(0)
		}
		_ = c.client.Close()
		_ = c.upstream.Close()
	})
}

// newChaosProxy starts a proxy for target (host:port) listening on a
// fresh loopback port.
func newChaosProxy(target string) (*chaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &chaosProxy{target: target, ln: ln, conns: make(map[*conn]struct{}), done: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address; point the router here instead of
// at the real replica.
func (p *chaosProxy) Addr() string { return p.ln.Addr().String() }

// SetLatency sets the added one-way delay applied to each relayed
// chunk (0 clears).
func (p *chaosProxy) SetLatency(d time.Duration) { p.latency.Store(int64(d)) }

// Stall freezes byte flow in both directions for d without closing
// anything: connections stay open, requests hang. Extends (never
// shortens) any stall already in effect.
func (p *chaosProxy) Stall(d time.Duration) {
	until := time.Now().Add(d).UnixNano()
	for {
		cur := p.stallUntil.Load()
		if cur >= until || p.stallUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Reset RSTs every connection currently open through the proxy. New
// connections still succeed — this is a transient network burp, not an
// outage.
func (p *chaosProxy) Reset() {
	p.mu.Lock()
	conns := make([]*conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.sever(true)
	}
}

// Partition cuts the link: existing connections are severed with RST
// and new ones are refused until Heal.
func (p *chaosProxy) Partition() {
	p.parted.Store(true)
	p.Reset()
}

// Heal ends a partition.
func (p *chaosProxy) Heal() { p.parted.Store(false) }

// Partitioned reports whether the link is currently cut.
func (p *chaosProxy) Partitioned() bool { return p.parted.Load() }

// Close stops the listener and severs everything. The proxy cannot be
// reused.
func (p *chaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	err := p.ln.Close()
	p.Reset()
	p.wg.Wait()
	return err
}

func (p *chaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		cl, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		client := cl.(*net.TCPConn)
		if p.parted.Load() {
			// Refuse as a partition does: an immediate RST, not a
			// polite close.
			_ = client.SetLinger(0)
			_ = client.Close()
			continue
		}
		up, err := net.DialTimeout("tcp", p.target, time.Second)
		if err != nil {
			_ = client.SetLinger(0)
			_ = client.Close()
			continue
		}
		c := &conn{client: client, upstream: up.(*net.TCPConn)}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.sever(true)
			continue
		}
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.relay(c, c.client, c.upstream)
		go p.relay(c, c.upstream, c.client)
	}
}

// relay copies src→dst in shaped chunks. When either direction dies the
// whole pair is severed: half-open proxied connections would leak and
// model nothing a routed HTTP request cares about.
func (p *chaosProxy) relay(c *conn, src, dst *net.TCPConn) {
	defer p.wg.Done()
	defer func() {
		c.sever(false)
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
	}()
	buf := make([]byte, copyBuf)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.shape()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return
			}
			// Propagate the half-close; the deferred sever finishes the
			// teardown once the other direction drains.
			_ = dst.CloseWrite()
			return
		}
	}
}

// shape applies the current latency and stall settings to one chunk.
// A stall ends early when the proxy closes.
func (p *chaosProxy) shape() {
	if until := p.stallUntil.Load(); until > 0 {
		if wait := time.Until(time.Unix(0, until)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-p.done:
				t.Stop()
			}
		}
	}
	if d := time.Duration(p.latency.Load()); d > 0 {
		time.Sleep(d)
	}
}

// echoServer answers each line with the same line.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					fmt.Fprintf(c, "%s\n", sc.Text())
				}
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func newTestProxy(t *testing.T) *chaosProxy {
	t.Helper()
	ln := echoServer(t)
	p, err := newChaosProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// echoOnce dials through the proxy, sends one line, and returns the
// answer (or an error).
func echoOnce(p *chaosProxy, msg string) (string, error) {
	c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		return "", err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := fmt.Fprintf(c, "%s\n", msg); err != nil {
		return "", err
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(line, "\n"), nil
}

func TestProxyRelays(t *testing.T) {
	p := newTestProxy(t)
	got, err := echoOnce(p, "hello")
	if err != nil {
		t.Fatalf("echo through proxy: %v", err)
	}
	if got != "hello" {
		t.Fatalf("echo = %q, want hello", got)
	}
}

func TestProxyLatency(t *testing.T) {
	p := newTestProxy(t)
	p.SetLatency(50 * time.Millisecond)
	start := time.Now()
	if _, err := echoOnce(p, "slow"); err != nil {
		t.Fatalf("echo with latency: %v", err)
	}
	// Request and response directions are each shaped once.
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("round trip %v with 2×50ms latency, want ≥90ms", elapsed)
	}
	p.SetLatency(0)
	start = time.Now()
	if _, err := echoOnce(p, "fast"); err != nil {
		t.Fatalf("echo after clearing latency: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("round trip %v after clearing latency", elapsed)
	}
}

func TestProxyStall(t *testing.T) {
	p := newTestProxy(t)
	p.Stall(150 * time.Millisecond)
	start := time.Now()
	if _, err := echoOnce(p, "stalled"); err != nil {
		t.Fatalf("echo during stall: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("round trip %v during a 150ms stall, want ≥100ms", elapsed)
	}
}

func TestProxyResetSeversExistingConns(t *testing.T) {
	p := newTestProxy(t)
	c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	fmt.Fprintf(c, "ping\n")
	if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
		t.Fatalf("pre-reset echo: %v", err)
	}
	p.Reset()
	// The severed connection must error out promptly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := fmt.Fprintf(c, "dead?\n"); err != nil {
			break
		}
		if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection survived Reset")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// New connections work: a reset is a burp, not an outage.
	if got, err := echoOnce(p, "again"); err != nil || got != "again" {
		t.Fatalf("post-reset echo: %q, %v", got, err)
	}
}

func TestProxyPartitionAndHeal(t *testing.T) {
	p := newTestProxy(t)
	if _, err := echoOnce(p, "before"); err != nil {
		t.Fatalf("pre-partition echo: %v", err)
	}
	p.Partition()
	if !p.Partitioned() {
		t.Fatal("Partitioned() false after Partition")
	}
	if _, err := echoOnce(p, "during"); err == nil {
		t.Fatal("echo succeeded through a partition")
	}
	p.Heal()
	// Heal is immediate; the next connection goes through.
	if got, err := echoOnce(p, "after"); err != nil || got != "after" {
		t.Fatalf("post-heal echo: %q, %v", got, err)
	}
}

func TestProxyCloseIsIdempotent(t *testing.T) {
	p := newTestProxy(t)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := echoOnce(p, "closed"); err == nil {
		t.Fatal("echo succeeded through a closed proxy")
	}
}

func TestProxyDeadTargetRefusesCleanly(t *testing.T) {
	ln := echoServer(t)
	addr := ln.Addr().String()
	ln.Close()
	p, err := newChaosProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := echoOnce(p, "void"); err == nil {
		t.Fatal("echo succeeded with a dead target")
	}
}
