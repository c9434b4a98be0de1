package link

import (
	"math"
	"strings"
	"testing"

	"contention/internal/cpu"
	"contention/internal/des"
	"contention/internal/mesh"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func basicCfg() Config {
	return Config{Name: "ether", MTU: 1024, PerPacket: 0.001, Bandwidth: 1e6}
}

func TestWireTimePiecewise(t *testing.T) {
	k := des.New()
	l, _, _ := MustNew(k, basicCfg(), EndpointConfig{Name: "a"}, EndpointConfig{Name: "b"})
	// One packet for sizes ≤ 1024.
	if got, want := l.WireTime(512), 0.001+512/1e6; !approx(got, want, 1e-12) {
		t.Fatalf("WireTime(512) = %v, want %v", got, want)
	}
	if got, want := l.WireTime(1024), 0.001+1024/1e6; !approx(got, want, 1e-12) {
		t.Fatalf("WireTime(1024) = %v, want %v", got, want)
	}
	// Two packets just past the MTU: the knee.
	if got, want := l.WireTime(1025), 0.002+1025/1e6; !approx(got, want, 1e-12) {
		t.Fatalf("WireTime(1025) = %v, want %v", got, want)
	}
	if got, want := l.WireTime(4096), 0.004+4096/1e6; !approx(got, want, 1e-12) {
		t.Fatalf("WireTime(4096) = %v, want %v", got, want)
	}
	// Zero-size message still costs one packet.
	if got := l.WireTime(0); !approx(got, 0.001, 1e-12) {
		t.Fatalf("WireTime(0) = %v, want 0.001", got)
	}
}

func TestSendDeliversToNamedPort(t *testing.T) {
	k := des.New()
	_, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun"}, EndpointConfig{Name: "mpp"})
	var got Message
	k.Spawn("recv", func(p *des.Proc) { got = b.Recv(p, "app1") })
	k.Spawn("send", func(p *des.Proc) { a.Send(p, "app1", "app1", 100, "hello") })
	k.Run()
	if got.Payload != "hello" || got.Words != 100 {
		t.Fatalf("received %+v", got)
	}
	if got.Arrived <= 0 {
		t.Fatalf("Arrived not set: %+v", got)
	}
}

func TestPortsIsolateApplications(t *testing.T) {
	k := des.New()
	_, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun"}, EndpointConfig{Name: "mpp"})
	var got1, got2 Message
	k.Spawn("r1", func(p *des.Proc) { got1 = b.Recv(p, "app1") })
	k.Spawn("r2", func(p *des.Proc) { got2 = b.Recv(p, "app2") })
	k.Spawn("s", func(p *des.Proc) {
		a.Send(p, "app2", "app2", 1, "two")
		a.Send(p, "app1", "app1", 1, "one")
	})
	k.Run()
	if got1.Payload != "one" || got2.Payload != "two" {
		t.Fatalf("port crosstalk: app1 got %v, app2 got %v", got1.Payload, got2.Payload)
	}
}

func TestWireIsFCFSAndExclusive(t *testing.T) {
	// Two senders race; second sender's message waits for the wire.
	cfg := Config{Name: "ether", MTU: 1024, PerPacket: 0, Bandwidth: 100} // 100 words/s
	k := des.New()
	_, a, b := MustNew(k, cfg, EndpointConfig{Name: "sun"}, EndpointConfig{Name: "mpp"})
	var arr1, arr2 float64
	k.Spawn("r", func(p *des.Proc) {
		m1 := b.Recv(p, "x")
		m2 := b.Recv(p, "x")
		arr1, arr2 = m1.Arrived, m2.Arrived
	})
	k.Spawn("s1", func(p *des.Proc) { a.Send(p, "x", "x", 100, 1) }) // 1s wire
	k.Spawn("s2", func(p *des.Proc) { a.Send(p, "x", "x", 100, 2) }) // queued behind s1
	k.Run()
	if !approx(arr1, 1, 1e-9) || !approx(arr2, 2, 1e-9) {
		t.Fatalf("arrivals %v/%v, want 1/2 (FCFS serialization)", arr1, arr2)
	}
}

func TestConversionChargedToHostCPU(t *testing.T) {
	// Send conversion is CPU work; a CPU hog on the host slows it 2×.
	k := des.New()
	host := cpu.NewHost(k, "sun", 1)
	cfg := Config{Name: "ether", MTU: 1024, PerPacket: 0, Bandwidth: 1e9}
	_, a, _ := MustNew(k, cfg,
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1.0},
		EndpointConfig{Name: "mpp"})
	var done float64
	k.Spawn("hog", func(p *des.Proc) { host.Compute(p, 1e9) })
	k.Spawn("s", func(p *des.Proc) {
		a.Send(p, "x", "x", 1, nil)
		done = p.Now()
	})
	k.RunUntil(10)
	// Conversion work 1.0 shared with the hog → 2 seconds.
	if !approx(done, 2, 1e-6) {
		t.Fatalf("send completed at %v, want 2 (CPU-contended conversion)", done)
	}
}

func TestReceiveConversionChargedToReceiver(t *testing.T) {
	k := des.New()
	hostB := cpu.NewHost(k, "sunB", 1)
	cfg := Config{Name: "ether", MTU: 1024, PerPacket: 0, Bandwidth: 1e9}
	_, a, b := MustNew(k, cfg,
		EndpointConfig{Name: "src"},
		EndpointConfig{Name: "dst", Host: hostB, RecvStartup: 3.0})
	var sendDone, recvDone, arrived float64
	k.Spawn("r", func(p *des.Proc) {
		m := b.Recv(p, "x")
		arrived = m.Arrived
		recvDone = p.Now()
	})
	k.Spawn("s", func(p *des.Proc) {
		a.Send(p, "x", "x", 1, nil)
		sendDone = p.Now()
	})
	k.Run()
	if sendDone >= 1 {
		t.Fatalf("sender blocked %v seconds; it must not wait for receive conversion", sendDone)
	}
	if arrived >= 1 {
		t.Fatalf("inbox delivery at %v; should happen at wire completion", arrived)
	}
	// The receiving process pays the 3s conversion in its own context.
	if !approx(recvDone, 3, 1e-6) {
		t.Fatalf("Recv returned at %v, want 3 (receiver-side conversion)", recvDone)
	}
}

func TestLinkAccounting(t *testing.T) {
	cfg := Config{Name: "ether", MTU: 100, PerPacket: 0.5, Bandwidth: 100}
	k := des.New()
	l, a, b := MustNew(k, cfg, EndpointConfig{Name: "a"}, EndpointConfig{Name: "b"})
	k.Spawn("r", func(p *des.Proc) { b.Recv(p, "x"); b.Recv(p, "x") })
	k.Spawn("s", func(p *des.Proc) {
		a.Send(p, "x", "x", 100, nil) // 0.5 + 1 = 1.5s
		a.Send(p, "x", "x", 150, nil) // 1.0 + 1.5 = 2.5s
	})
	k.Run()
	if l.Messages() != 2 {
		t.Fatalf("Messages = %d, want 2", l.Messages())
	}
	if l.WordsMoved() != 250 {
		t.Fatalf("WordsMoved = %d, want 250", l.WordsMoved())
	}
	if got := l.BusyTime(); !approx(got, 4, 1e-9) {
		t.Fatalf("BusyTime = %v, want 4", got)
	}
	if got := l.Utilization(); !approx(got, 1, 1e-9) {
		t.Fatalf("Utilization = %v, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	k := des.New()
	bad := []Config{
		{Name: "m0", MTU: 0, PerPacket: 0, Bandwidth: 1},
		{Name: "bw", MTU: 1, PerPacket: 0, Bandwidth: 0},
		{Name: "pp", MTU: 1, PerPacket: -1, Bandwidth: 1},
		{Name: "nan", MTU: 1, PerPacket: 0, Bandwidth: math.NaN()},
	}
	for _, cfg := range bad {
		if _, _, _, err := New(k, cfg, EndpointConfig{}, EndpointConfig{}); err == nil {
			t.Errorf("config %+v did not error", cfg)
		}
	}
}

func TestNegativeSizePanics(t *testing.T) {
	k := des.New()
	_, a, _ := MustNew(k, basicCfg(), EndpointConfig{Name: "a"}, EndpointConfig{Name: "b"})
	k.Spawn("s", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative size did not panic")
			}
		}()
		a.Send(p, "x", "x", -1, nil)
	})
	k.Run()
}

func TestBidirectionalSharingHalfDuplex(t *testing.T) {
	// Transfers in opposite directions contend for the same wire.
	cfg := Config{Name: "ether", MTU: 1024, PerPacket: 0, Bandwidth: 100}
	k := des.New()
	_, a, b := MustNew(k, cfg, EndpointConfig{Name: "a"}, EndpointConfig{Name: "b"})
	var doneA, doneB float64
	k.Spawn("ra", func(p *des.Proc) { a.Recv(p, "x") })
	k.Spawn("rb", func(p *des.Proc) { b.Recv(p, "x") })
	k.Spawn("sa", func(p *des.Proc) {
		a.Send(p, "x", "x", 100, nil)
		doneA = p.Now()
	})
	k.Spawn("sb", func(p *des.Proc) {
		b.Send(p, "x", "x", 100, nil)
		doneB = p.Now()
	})
	k.Run()
	// One of them must wait for the other: completions at 1s and 2s.
	lo, hi := math.Min(doneA, doneB), math.Max(doneA, doneB)
	if !approx(lo, 1, 1e-9) || !approx(hi, 2, 1e-9) {
		t.Fatalf("completions %v/%v, want 1 and 2", doneA, doneB)
	}
}

func TestPreSendHookRunsBeforeWire(t *testing.T) {
	cfg := Config{Name: "ether", MTU: 1024, PerPacket: 0, Bandwidth: 100}
	k := des.New()
	var hookAt float64
	_, a, b := MustNew(k, cfg,
		EndpointConfig{Name: "src", PreSend: func(p *des.Proc, words int) {
			p.Delay(0.5)
			hookAt = p.Now()
		}},
		EndpointConfig{Name: "dst"})
	var arrived float64
	k.Spawn("r", func(p *des.Proc) { arrived = b.Recv(p, "x").Arrived })
	k.Spawn("s", func(p *des.Proc) { a.Send(p, "x", "x", 100, nil) })
	k.Run()
	if !approx(hookAt, 0.5, 1e-9) {
		t.Fatalf("hook ran at %v, want 0.5", hookAt)
	}
	if !approx(arrived, 1.5, 1e-9) {
		t.Fatalf("arrival at %v, want 1.5 (hook + wire)", arrived)
	}
}

func TestForwardHookDelaysDelivery(t *testing.T) {
	cfg := Config{Name: "ether", MTU: 1024, PerPacket: 0, Bandwidth: 100}
	k := des.New()
	_, a, b := MustNew(k, cfg,
		EndpointConfig{Name: "src"},
		EndpointConfig{Name: "dst", Forward: func(words int, deliver func()) {
			k.After(2, deliver) // e.g. an NX hop
		}})
	var arrived float64
	k.Spawn("r", func(p *des.Proc) { arrived = b.Recv(p, "x").Arrived })
	k.Spawn("s", func(p *des.Proc) { a.Send(p, "x", "x", 100, nil) })
	k.Run()
	if !approx(arrived, 3, 1e-9) {
		t.Fatalf("arrival at %v, want 3 (wire 1 + forward 2)", arrived)
	}
}

func TestFaultFuncForcesRetransmit(t *testing.T) {
	// Dropping exactly the first attempt of each message: every send
	// pays one extra wire time plus one PerPacket backoff.
	k := des.New()
	l, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun"}, EndpointConfig{Name: "mpp"})
	attempt := 0
	l.SetFaultFunc(func(words int) bool {
		attempt++
		return attempt == 1
	})
	var arrived float64
	k.Spawn("recv", func(p *des.Proc) { b.Recv(p, "x"); arrived = p.Now() })
	k.Spawn("send", func(p *des.Proc) { a.Send(p, "x", "x", 100, nil) })
	k.Run()
	wire := l.WireTime(100)
	// Two paced transmissions plus the first backoff (= PerPacket).
	want := 2*wire + 0.001
	if !approx(arrived, want, 1e-9) {
		t.Fatalf("arrived at %v, want %v (1 retransmit)", arrived, want)
	}
	if l.Retransmits() != 1 {
		t.Fatalf("Retransmits = %d, want 1", l.Retransmits())
	}
	// Both attempts occupied the wire.
	if got, want := l.BusyTime(), 2*wire; !approx(got, want, 1e-9) {
		t.Fatalf("BusyTime = %v, want %v", got, want)
	}
}

func TestFaultFuncAttemptsAreBounded(t *testing.T) {
	// A wire that always faults must not livelock: the sender gives up
	// retransmitting after maxTxAttempts and delivers anyway (transport
	// gives up on reliability, the simulation stays live).
	k := des.New()
	l, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun"}, EndpointConfig{Name: "mpp"})
	l.SetFaultFunc(func(words int) bool { return true })
	delivered := false
	k.Spawn("recv", func(p *des.Proc) { b.Recv(p, "x"); delivered = true })
	k.Spawn("send", func(p *des.Proc) { a.Send(p, "x", "x", 10, nil) })
	k.Run()
	if !delivered {
		t.Fatal("message never delivered under a permanently faulty wire")
	}
	if l.Retransmits() != maxTxAttempts-1 {
		t.Fatalf("Retransmits = %d, want %d", l.Retransmits(), maxTxAttempts-1)
	}
}

func TestFaultFuncNilIsClean(t *testing.T) {
	k := des.New()
	l, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun"}, EndpointConfig{Name: "mpp"})
	k.Spawn("recv", func(p *des.Proc) { b.Recv(p, "x") })
	k.Spawn("send", func(p *des.Proc) { a.Send(p, "x", "x", 10, nil) })
	k.Run()
	if l.Retransmits() != 0 {
		t.Fatalf("Retransmits = %d on a clean wire", l.Retransmits())
	}
}

// Send's return value carries the arrival stamp on the direct path —
// delivery happens before Send returns — and leaves it unset when the
// peer's Forward hook relays the message, however soon the hook calls
// deliver: the relayed copy is stamped, not the sender's.
func TestSendReturnValueArrivalStamp(t *testing.T) {
	k := des.New()
	defer k.Close()
	_, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun"}, EndpointConfig{Name: "mpp"})
	var sent, got Message
	k.Spawn("recv", func(p *des.Proc) { got = b.Recv(p, "x") })
	k.Spawn("send", func(p *des.Proc) { sent = a.Send(p, "x", "x", 100, "hello") })
	k.Run()
	if sent.Arrived <= 0 || sent != got {
		t.Fatalf("direct path: Send returned %+v, receiver got %+v; want the same stamped message", sent, got)
	}
	if sent.Sent != 0 || sent.Queued != 0 || sent.Arrived != k.Now() {
		t.Fatalf("direct path timestamps %+v, want sent and queued at 0, arrived at %v", sent, k.Now())
	}

	for name, hop := range map[string]float64{"immediate": 0, "delayed": 0.5} {
		k := des.New()
		defer k.Close()
		_, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun"},
			EndpointConfig{Name: "mpp", Forward: func(words int, deliver func()) {
				if hop == 0 {
					deliver()
				} else {
					k.After(hop, deliver)
				}
			}})
		var sent, got Message
		var returnedAt float64
		k.Spawn("recv", func(p *des.Proc) { got = b.Recv(p, "x") })
		k.Spawn("send", func(p *des.Proc) {
			sent = a.Send(p, "x", "x", 100, "hello")
			returnedAt = p.Now()
		})
		k.Run()
		if sent.Arrived != 0 {
			t.Errorf("%s forward: Send returned Arrived = %v, want it unset", name, sent.Arrived)
		}
		if want := returnedAt + hop; got.Arrived != want {
			t.Errorf("%s forward: receiver's Arrived = %v, want %v", name, got.Arrived, want)
		}
		sent.Arrived = got.Arrived
		if sent != got {
			t.Errorf("%s forward: relayed copy %+v differs from the sender's %+v", name, got, sent)
		}
	}
}

// A handled port sees every message exactly once, stamped, in send
// order — whether delivery is the sender's own call, a Forward relay on
// a free fabric, or one queued behind a busy fabric and carried by the
// service node's forwarder process.
func TestHandledPortReceivesEachMessageOnceInOrder(t *testing.T) {
	const n = 200
	for name, tc := range map[string]struct {
		hops, contraflow bool
	}{
		"1-HOP":                 {},
		"2-HOPS, free fabric":   {hops: true},
		"2-HOPS, queued fabric": {hops: true, contraflow: true},
	} {
		k := des.New()
		defer k.Close()
		mpp := mesh.MustNew(k, mesh.Config{Name: "paragon", Nodes: 4, NodeSpeed: 1, NXAlpha: 5e-4, NXBeta: 1e6})
		bCfg := EndpointConfig{Name: "mpp"}
		if tc.hops {
			bCfg.Forward, bCfg.PreSend = mpp.NXHopAsync, mpp.NXSend
		}
		l, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun"}, bCfg)
		var got []Message
		queued := 0
		b.Handle("x", func(msg Message) {
			if msg.Arrived != k.Now() {
				t.Errorf("%s: message %v stamped %v at time %v", name, msg.Payload, msg.Arrived, k.Now())
			}
			if hop := msg.Arrived - (msg.Queued + l.WireTime(msg.Words)); hop > mpp.NXTime(msg.Words)+1e-9 {
				queued++
			}
			got = append(got, msg)
		})
		k.Spawn("send", func(p *des.Proc) {
			for i := 0; i < n; i++ {
				a.Send(p, "x", "x", 512, i)
			}
			k.Stop()
		})
		if tc.contraflow {
			// Larger messages the other way hold the fabric (PreSend)
			// while inbound ones reach the service node.
			a.Handle("y", nil)
			k.Spawn("back", func(p *des.Proc) {
				for {
					b.Send(p, "y", "y", 2048, nil)
				}
			})
		}
		k.Run()
		k.RunUntil(k.Now() + 1) // the last relays land after the sender stops
		if len(got) != n {
			t.Fatalf("%s: handler saw %d messages, want %d", name, len(got), n)
		}
		for i, msg := range got {
			if msg.Payload != i || msg.Words != 512 || msg.DstPort != "x" {
				t.Fatalf("%s: message %d is %+v", name, i, msg)
			}
		}
		if b.Port("x").Len() != 0 {
			t.Errorf("%s: handled port queued %d messages", name, b.Port("x").Len())
		}
		if (queued > 0) != tc.contraflow {
			t.Errorf("%s: %d hops queued behind a busy fabric, want some: %v", name, queued, tc.contraflow)
		}
	}
}

// wantLinkPanic runs f and checks it panics with a "link:" message.
func wantLinkPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "link:") {
			t.Errorf("%s: recovered %q, want a link: panic", what, msg)
		}
	}()
	f()
}

// A handler has no process to charge receive conversion to, so only a
// host-less endpoint may have one; and a port that hands its messages
// to a handler has nothing for Recv to return.
func TestHandleMisusePanics(t *testing.T) {
	k := des.New()
	defer k.Close()
	host := cpu.NewHost(k, "sun", 1)
	_, a, b := MustNew(k, basicCfg(), EndpointConfig{Name: "sun", Host: host}, EndpointConfig{Name: "mpp"})
	wantLinkPanic(t, "Handle on an endpoint with a Host", func() { a.Handle("x", nil) })
	b.Handle("x", nil)
	k.Spawn("recv", func(p *des.Proc) {
		wantLinkPanic(t, "Recv on a handled port", func() { b.Recv(p, "x") })
	})
	k.Run()
}

// sendLoop streams fixed-size messages from a CPU-backed endpoint to a
// receiver that drains them: conversion on the host, the wire
// semaphore, the wire delay, the inbox and the receive conversion —
// every resource a simulated message crosses. With discard there is no
// receiver: the port drops each message as it lands.
func sendLoop(k *des.Kernel, discard bool) *Link {
	host := cpu.NewHost(k, "sun", 1)
	l, a, b := MustNew(k, basicCfg(),
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1e-4, SendPerWord: 1e-6},
		EndpointConfig{Name: "mpp"})
	if discard {
		b.Handle("x", nil)
	} else {
		k.Spawn("recv", func(p *des.Proc) {
			for {
				b.Recv(p, "x")
			}
		})
	}
	k.Spawn("send", func(p *des.Proc) {
		for {
			a.Send(p, "x", "x", 512, nil)
		}
	})
	return l
}

// hopLoop is sendLoop on a 2-HOPS platform: the receiving endpoint
// relays every inbound message across a mesh fabric (Forward →
// NXHopAsync) before it reaches the inbox. With contraflow, a second
// stream of larger messages runs the other way, each paying its NX hop
// before the wire (PreSend → NXSend): about every other inbound message
// then reaches the service node while that hop holds the fabric and has
// to queue behind it. queued counts those, told apart by a hop longer
// than the dedicated fabric time.
func hopLoop(k *des.Kernel, contraflow bool) (l *Link, queued *int) {
	host := cpu.NewHost(k, "sun", 1)
	mpp := mesh.MustNew(k, mesh.Config{Name: "paragon", Nodes: 4, NodeSpeed: 1, NXAlpha: 5e-4, NXBeta: 1e6})
	l, a, b := MustNew(k, basicCfg(),
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1e-4, SendPerWord: 1e-6},
		EndpointConfig{Name: "mpp", Forward: mpp.NXHopAsync, PreSend: mpp.NXSend})
	queued = new(int)
	k.Spawn("recv", func(p *des.Proc) {
		for {
			msg := b.Recv(p, "x")
			if hop := msg.Arrived - (msg.Queued + l.WireTime(msg.Words)); hop > mpp.NXTime(msg.Words)+1e-9 {
				*queued++
			}
		}
	})
	k.Spawn("send", func(p *des.Proc) {
		for {
			a.Send(p, "x", "x", 512, nil)
		}
	})
	if contraflow {
		k.Spawn("sink", func(p *des.Proc) {
			for {
				a.Recv(p, "y")
			}
		})
		k.Spawn("back", func(p *des.Proc) {
			for {
				b.Send(p, "y", "y", 2048, nil)
			}
		})
	}
	return l, queued
}

func TestSendAllocationFree(t *testing.T) {
	for name, tc := range map[string]struct {
		contraflow, hops, queues, discard bool
	}{
		"direct":                {},
		"direct, discarded":     {discard: true},
		"2-HOPS, free fabric":   {hops: true},
		"2-HOPS, queued fabric": {hops: true, contraflow: true, queues: true},
	} {
		k := des.New()
		defer k.Close()
		var l *Link
		queued := new(int)
		if tc.hops {
			l, queued = hopLoop(k, tc.contraflow)
		} else {
			l = sendLoop(k, tc.discard)
		}
		k.RunUntil(1)
		messages, hopsQueued := l.Messages(), *queued
		if got := testing.AllocsPerRun(200, func() { k.RunUntil(k.Now() + 0.1) }); got != 0 {
			t.Errorf("%s: %v allocs per 0.1 s of streaming, want 0", name, got)
		}
		if l.Messages() == messages {
			t.Errorf("%s: no message crossed the link while measuring", name)
		}
		if got := *queued - hopsQueued; (got > 0) != tc.queues {
			t.Errorf("%s: %d hops queued behind a busy fabric while measuring, want some: %v", name, got, tc.queues)
		}
	}
}

// BenchmarkSend prices one message end to end (send conversion, wire,
// delivery, receive) on the direct path.
func BenchmarkSend(b *testing.B) {
	k := des.New()
	defer k.Close()
	l := sendLoop(k, false)
	k.RunUntil(1)
	start := l.Messages()
	b.ReportAllocs()
	b.ResetTimer()
	for l.Messages()-start < b.N {
		k.RunUntil(k.Now() + 0.1)
	}
}
