package link

import (
	"fmt"
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

// sun is the CPU-backed end for tests that are not about conversion: its
// host charges nothing, so Send and Recv cost a zero-length wait each.
func sun(k *des.Kernel) EndpointConfig {
	return EndpointConfig{Name: "sun", Host: cpu.NewHost(k, "sun", 1)}
}

// sendFromNode is the process Stream stands in for, kept as the
// reference TestStreamMatchesSendLoop compares it with: one message sent
// from the host-less end by a process, through Send's steps — the stamp,
// the blocking pre-wire hop, the wire, its occupancy, the fault decision
// with its backoff, delivery — and no conversion, there being no CPU.
func sendFromNode(p *des.Proc, n *Node, pre func(*des.Proc, int), srcPort, dstPort string, words int, payload any) {
	l := n.link
	msg := Message{Words: words, SrcPort: srcPort, DstPort: dstPort, Sent: p.Now(), Payload: payload}
	if pre != nil {
		pre(p, words)
	}
	wt := l.WireTime(words)
	backoff := l.cfg.PerPacket
	for attempt := 1; ; attempt++ {
		l.wire.Acquire(p)
		if attempt == 1 {
			msg.Queued = p.Now()
		}
		p.Delay(wt)
		if !l.attempted(words, wt, attempt) {
			break
		}
		p.Delay(backoff)
		backoff *= 2
	}
	n.peer.deliver(&msg)
}

// MustNew is New but panics on config errors.
func MustNew(k *des.Kernel, cfg Config, hostCfg EndpointConfig, nodeCfg NodeConfig) (*Link, *Endpoint, *Node) {
	l, e, n, err := New(k, cfg, hostCfg, nodeCfg)
	if err != nil {
		panic(err)
	}
	return l, e, n
}

// newMPP is a small Paragon whose fabric the 2-HOPS tests route through.
func newMPP(k *des.Kernel) *mesh.Machine {
	m, err := mesh.New(k, mesh.Config{Name: "paragon", Nodes: 4, NodeSpeed: 1, NXAlpha: 5e-4, NXBeta: 1e6})
	if err != nil {
		panic(err)
	}
	return m
}

func TestWireTimePiecewise(t *testing.T) {
	k := des.New()
	l, _, _ := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
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
	_, a, b := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
	var got Message
	b.Handle("app1", func(msg Message) { got = msg })
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
	_, a, b := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
	var got1, got2 Message
	b.Handle("app1", func(msg Message) { got1 = msg })
	b.Handle("app2", func(msg Message) { got2 = msg })
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
	_, a, b := MustNew(k, cfg, sun(k), NodeConfig{Name: "mpp"})
	var arrivals []float64
	b.Handle("x", func(msg Message) { arrivals = append(arrivals, msg.Arrived) })
	k.Spawn("s1", func(p *des.Proc) { a.Send(p, "x", "x", 100, 1) }) // 1s wire
	k.Spawn("s2", func(p *des.Proc) { a.Send(p, "x", "x", 100, 2) }) // queued behind s1
	k.Run()
	if len(arrivals) != 2 || !approx(arrivals[0], 1, 1e-9) || !approx(arrivals[1], 2, 1e-9) {
		t.Fatalf("arrivals %v, want 1 and 2 (FCFS serialization)", arrivals)
	}
}

func TestConversionChargedToHostCPU(t *testing.T) {
	// Send conversion is CPU work; a CPU hog on the host slows it 2×.
	k := des.New()
	host := cpu.NewHost(k, "sun", 1)
	cfg := Config{Name: "ether", MTU: 1024, PerPacket: 0, Bandwidth: 1e9}
	_, a, _ := MustNew(k, cfg,
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1.0},
		NodeConfig{Name: "mpp"})
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
	host := cpu.NewHost(k, "sun", 1)
	cfg := Config{Name: "ether", MTU: 1024, PerPacket: 0, Bandwidth: 1e9}
	_, a, b := MustNew(k, cfg,
		EndpointConfig{Name: "dst", Host: host, RecvStartup: 3.0},
		NodeConfig{Name: "src"})
	var sendDone, recvDone, arrived float64
	k.Spawn("r", func(p *des.Proc) {
		m := a.Recv(p, "x")
		arrived = m.Arrived
		recvDone = p.Now()
		// The stream began its second message when it was done with the
		// first, as a sending process's Send would have returned.
		sendDone = a.Recv(p, "x").Sent
	})
	b.Stream("x", "x", 2, 1, nil)
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
	l, a, _ := MustNew(k, cfg, sun(k), NodeConfig{Name: "mpp"})
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
		if _, _, _, err := New(k, cfg, sun(k), NodeConfig{}); err == nil {
			t.Errorf("config %+v did not error", cfg)
		}
	}
}

func TestNegativeSizePanics(t *testing.T) {
	k := des.New()
	_, a, _ := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
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
	_, a, b := MustNew(k, cfg, sun(k), NodeConfig{Name: "mpp"})
	var doneA, doneB float64
	k.Spawn("ra", func(p *des.Proc) { doneB = a.Recv(p, "x").Arrived })
	k.Spawn("sa", func(p *des.Proc) {
		a.Send(p, "x", "x", 100, nil)
		doneA = p.Now()
	})
	b.Stream("x", "x", 1, 100, nil)
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
	_, a, b := MustNew(k, cfg, sun(k),
		NodeConfig{Name: "src", PreSend: func(words int, done func()) {
			k.After(0.5, func() {
				hookAt = k.Now()
				done()
			})
		}})
	var arrived float64
	k.Spawn("r", func(p *des.Proc) { arrived = a.Recv(p, "x").Arrived })
	b.Stream("x", "x", 1, 100, nil)
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
	_, a, b := MustNew(k, cfg, sun(k),
		NodeConfig{Name: "dst", Forward: func(words int, deliver func()) {
			k.After(2, deliver) // e.g. an NX hop
		}})
	var arrived float64
	b.Handle("x", func(msg Message) { arrived = msg.Arrived })
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
	l, a, b := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
	attempt := 0
	l.SetFaultFunc(func(words int) bool {
		attempt++
		return attempt == 1
	})
	var arrived float64
	b.Handle("x", func(Message) { arrived = k.Now() })
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
	l, a, b := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
	l.SetFaultFunc(func(words int) bool { return true })
	delivered := false
	b.Handle("x", func(Message) { delivered = true })
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
	l, a, _ := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
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
	_, a, b := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
	var sent, got Message
	b.Handle("x", func(msg Message) { got = msg })
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
		_, a, b := MustNew(k, basicCfg(), sun(k),
			NodeConfig{Name: "mpp", Forward: func(words int, deliver func()) {
				if hop == 0 {
					deliver()
				} else {
					k.After(hop, deliver)
				}
			}})
		var sent, got Message
		var returnedAt float64
		b.Handle("x", func(msg Message) { got = msg })
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
// a free fabric, or one queued behind a busy fabric that the service
// node gets round to an event later.
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
		mpp := newMPP(k)
		bCfg := NodeConfig{Name: "mpp"}
		if tc.hops {
			bCfg.Forward, bCfg.PreSend = mpp.NXHopAsync, mpp.NXSendAsync
		}
		l, a, b := MustNew(k, basicCfg(), sun(k), bCfg)
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
			k.Spawn("sink", func(p *des.Proc) {
				for {
					a.Recv(p, "y")
				}
			})
			b.Stream("y", "y", math.MaxInt, 2048, nil)
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
		if (queued > 0) != tc.contraflow {
			t.Errorf("%s: %d hops queued behind a busy fabric, want some: %v", name, queued, tc.contraflow)
		}
	}
}

// streamRun is what a burst from the node leaves behind.
type streamRun struct {
	got                      []Message // as the Sun's receiver read them
	busy                     float64
	messages, words, resends int
	fabricBusy               float64
	fabricSends, hopsQueued  int // hopsQueued: pre-wire hops and contraflow relays that found the fabric busy
	clock                    float64
	resumes                  uint64
}

// runBurst sends 60 messages of 2048 words from the host-less end of a
// fresh Sun/MPP link to a receiver process on the Sun — from a process
// looping on sendFromNode, or as one Stream call made at the same
// instant — and reports everything the run leaves behind.
func runBurst(stream bool, hops, contraflow, neighbour bool, fault FaultFunc) streamRun {
	const n, words = 60, 2048
	k := des.New()
	defer k.Close()
	host := cpu.NewHost(k, "sun", 1)
	mpp := newMPP(k)
	bCfg := NodeConfig{Name: "mpp"}
	var preSend func(*des.Proc, int)
	if hops {
		bCfg.Forward, bCfg.PreSend, preSend = mpp.NXHopAsync, mpp.NXSendAsync, mpp.NXSend
	}
	l, a, b := MustNew(k, basicCfg(),
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1e-4, SendPerWord: 1e-6, RecvStartup: 2e-4, RecvPerWord: 5e-7}, bCfg)
	l.SetFaultFunc(fault)
	var run streamRun
	k.Spawn("recv", func(p *des.Proc) {
		for len(run.got) < n {
			run.got = append(run.got, a.Recv(p, "x"))
		}
	})
	if contraflow {
		// A Sun-side sender contends for the half-duplex wire and, in
		// 2-HOPS, its relayed messages for the fabric.
		b.Handle("y", func(msg Message) {
			if hop := msg.Arrived - (msg.Queued + l.WireTime(msg.Words)); hop > mpp.NXTime(msg.Words)+1e-9 {
				run.hopsQueued++
			}
		})
		k.Spawn("back", func(p *des.Proc) {
			for i := 0; i < n; i++ {
				a.Send(p, "y", "y", 300+50*(i%9), nil)
			}
		})
	}
	if neighbour {
		// Another partition's traffic keeps the fabric busy, and the
		// burst's pre-wire hops queue among its parked sends.
		k.Spawn("neighbour", func(p *des.Proc) {
			for i := 0; i < 4*n; i++ {
				mpp.NXSend(p, 3000)
				p.Delay(1e-4)
			}
		})
	}
	if stream {
		b.Stream("x", "x", n, words, "burst")
	} else {
		k.Spawn("send", func(p *des.Proc) {
			for i := 0; i < n; i++ {
				sendFromNode(p, b, preSend, "x", "x", words, "burst")
			}
		})
	}
	k.Run()
	for _, msg := range run.got {
		if !contraflow && msg.Queued-msg.Sent > mpp.NXTime(words)+1e-9 { // nobody else wants the wire
			run.hopsQueued++
		}
	}
	run.busy, run.messages, run.words, run.resends = l.BusyTime(), l.Messages(), l.WordsMoved(), l.Retransmits()
	run.fabricBusy, run.fabricSends = mpp.FabricBusy(), mpp.FabricSends()
	run.clock, run.resumes = k.Now(), k.Resumes()
	return run
}

// Stream ≡ a process looping on sendFromNode: the receiver reads the same
// messages with the same three stamps, the wire and the fabric account
// the same occupancy, and the run ends at the same instant — to the bit,
// since the same events fire in the same order — with nobody to switch
// into on the sending side.
func TestStreamMatchesSendLoop(t *testing.T) {
	lossy := func() FaultFunc {
		attempt := 0
		return func(int) bool { // loses the 1st, the 2nd and every 7th attempt
			attempt++
			return attempt <= 2 || attempt%7 == 0
		}
	}
	for name, tc := range map[string]struct {
		hops, contraflow, neighbour bool
		fault                       func() FaultFunc
	}{
		"1-HOP":                          {},
		"2-HOPS, free fabric":            {hops: true},
		"2-HOPS, busy fabric":            {hops: true, neighbour: true},
		"2-HOPS, contraflow":             {hops: true, contraflow: true},
		"1-HOP, contended wire":          {contraflow: true},
		"1-HOP, lossy wire":              {fault: lossy},
		"2-HOPS, contraflow, lossy wire": {hops: true, contraflow: true, neighbour: true, fault: lossy},
	} {
		var faults [2]FaultFunc
		if tc.fault != nil {
			faults = [2]FaultFunc{tc.fault(), tc.fault()}
		}
		want := runBurst(false, tc.hops, tc.contraflow, tc.neighbour, faults[0])
		got := runBurst(true, tc.hops, tc.contraflow, tc.neighbour, faults[1])
		if len(got.got) != len(want.got) || len(want.got) != 60 {
			t.Fatalf("%s: receiver read %d messages streamed, %d sent in a loop, want 60", name, len(got.got), len(want.got))
		}
		for i := range want.got {
			if got.got[i] != want.got[i] {
				t.Fatalf("%s: message %d streamed %+v, sent in a loop %+v", name, i, got.got[i], want.got[i])
			}
		}
		if got.resumes >= want.resumes {
			t.Errorf("%s: %d resumes streaming, %d with a sending process; want fewer", name, got.resumes, want.resumes)
		}
		got.got, want.got, got.resumes, want.resumes = nil, nil, 0, 0
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: streamed run left %+v, send loop %+v", name, got, want)
		}
		if tc.fault != nil && want.resends == 0 || tc.hops && want.fabricSends == 0 || (tc.contraflow || tc.neighbour) && tc.hops != (want.hopsQueued > 0) {
			t.Errorf("%s: the scenario did not exercise what it names: %+v", name, want)
		}
	}
}

// Two streams on one endpoint are two senders: they queue for the wire
// in turn, message by message. A count below one schedules nothing.
func TestStreamsInterleaveFIFO(t *testing.T) {
	k := des.New()
	defer k.Close()
	_, a, b := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
	var got []any
	b.Stream("x", "x", 0, 100, "none")
	b.Stream("x", "x", -3, 100, "none")
	if k.Pending() != 0 {
		t.Fatalf("%d events pending after two empty streams, want 0", k.Pending())
	}
	b.Stream("x", "x", 3, 100, "A")
	b.Stream("x", "x", 3, 100, "B")
	k.Spawn("recv", func(p *des.Proc) {
		for len(got) < 6 {
			got = append(got, a.Recv(p, "x").Payload)
		}
	})
	k.Run()
	if want := "[A B A B A B]"; fmt.Sprint(got) != want {
		t.Fatalf("arrivals %v, want %s", got, want)
	}
}

// The one misuse of Stream the types still allow, a negative size, is
// refused before anything is scheduled. (Streaming beside a Host, or
// past a pre-wire hop with no asynchronous form, no longer compiles.)
func TestStreamMisusePanics(t *testing.T) {
	k := des.New()
	defer k.Close()
	_, _, b := MustNew(k, basicCfg(), sun(k), NodeConfig{Name: "mpp"})
	wantLinkPanic(t, "Stream of a negative size", func() { b.Stream("x", "x", 1, -1, nil) })
	if k.Pending() != 0 {
		t.Fatalf("%d events pending after a refused stream, want 0", k.Pending())
	}
}

// doneAt records when it fires.
type doneAt struct {
	k     *des.Kernel
	fired []float64
}

func (d *doneAt) Fire() { d.fired = append(d.fired, d.k.Now()) }

// The front-end's asynchronous forms fire done exactly once: a stream in
// the event that hands over its last message, a drain in the one that
// ends its last message's conversion, and either at once for a count
// below one. A negative size is refused before anything is scheduled.
func TestEndpointStreamAndDrainFireDoneOnce(t *testing.T) {
	k := des.New()
	defer k.Close()
	host := cpu.NewHost(k, "sun", 1)
	_, a, b := MustNew(k, basicCfg(),
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1e-4, RecvStartup: 2e-4, RecvPerWord: 1e-6}, NodeConfig{Name: "mpp"})
	empty := &doneAt{k: k}
	a.Stream("x", "x", 0, 100, empty)
	a.Drain("x", -1, empty)
	wantLinkPanic(t, "Endpoint.Stream of a negative size", func() { a.Stream("x", "x", 1, -1, nil) })
	if len(empty.fired) != 2 || k.Pending() != 0 {
		t.Fatalf("empty stream and drain fired done %d times and left %d events, want 2 and 0", len(empty.fired), k.Pending())
	}
	var arrived []float64
	b.Handle("x", func(msg Message) { arrived = append(arrived, msg.Arrived) })
	sent, drained := &doneAt{k: k}, &doneAt{k: k}
	a.Stream("x", "x", 3, 100, sent)
	b.Stream("y", "y", 4, 500, nil)
	a.Drain("y", 4, drained)
	k.Run()
	if len(arrived) != 3 || len(sent.fired) != 1 || sent.fired[0] != arrived[2] {
		t.Fatalf("stream: arrivals %v, done fired at %v; want 3 arrivals and done once at the last", arrived, sent.fired)
	}
	if len(drained.fired) != 1 || drained.fired[0] != k.Now() || host.Completed() != 3+4 {
		t.Fatalf("drain: done fired at %v, run ended at %v, %d conversions; want once, at the end, after 7", drained.fired, k.Now(), host.Completed())
	}
	if k.Procs() != 0 {
		t.Fatalf("%d live processes, want none", k.Procs())
	}
}

// Stop called by an arrival handler ends the Run at the sender's next
// wait, however far it had been running ahead — the handler runs on the
// sender's stack, in the middle of its Send — and the next Run carries
// on with the message after.
func TestStopFromHandlerParksARunningAheadSender(t *testing.T) {
	k := des.New()
	defer k.Close()
	host := cpu.NewHost(k, "sun", 1)
	l, a, b := MustNew(k, basicCfg(),
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1e-4}, NodeConfig{Name: "mpp"})
	b.Handle("x", func(msg Message) {
		if msg.Payload == 2 {
			k.Stop()
		}
	})
	k.Spawn("send", func(p *des.Proc) {
		for i := 0; i < 5; i++ {
			a.Send(p, "x", "x", 100, i)
		}
	})
	k.Run()
	// The sender's only events so far were its start and nothing else:
	// it ran ahead through three messages, and is parked in the fourth's
	// conversion.
	if got, want := k.Now(), 3*(1e-4+l.WireTime(100)); l.Messages() != 3 || !approx(got, want, 1e-12) || k.Dispatched() != 1 {
		t.Fatalf("stopped with %d messages sent at %v after %d events, want 3 at %v after 1", l.Messages(), got, k.Dispatched(), want)
	}
	if k.Pending() != 1 || host.Load() != 1 {
		t.Fatalf("stopped with %d events pending and %d jobs on the host, want the sender parked in its conversion", k.Pending(), host.Load())
	}
	k.Run()
	if l.Messages() != 5 || k.Procs() != 0 {
		t.Fatalf("second Run: %d messages sent, %d live processes, want 5 and 0", l.Messages(), k.Procs())
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

// sendLoop sends fixed-size messages from the CPU-backed end to a port
// of the node: conversion on the host, the wire semaphore, the wire
// delay and the arrival handler — every resource a simulated message
// crosses on its way out. With discard the port has no handler: the
// node drops each message as it lands.
func sendLoop(k *des.Kernel, discard bool) *Link {
	host := cpu.NewHost(k, "sun", 1)
	l, a, b := MustNew(k, basicCfg(),
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1e-4, SendPerWord: 1e-6},
		NodeConfig{Name: "mpp"})
	if !discard {
		b.Handle("x", func(Message) {})
	}
	k.Spawn("send", func(p *des.Proc) {
		for {
			a.Send(p, "x", "x", 512, nil)
		}
	})
	return l
}

// hopLoop is sendLoop on a 2-HOPS platform: the node relays every
// inbound message across a mesh fabric (Forward → NXHopAsync) before it
// reaches the handler. With contraflow, an endless stream of larger
// messages runs the other way, each paying its NX hop before the wire
// (PreSend → NXSendAsync): about every other inbound message then
// reaches the service node while that hop holds the fabric and has to
// queue behind it. queued counts those, told apart by a hop longer than
// the dedicated fabric time.
func hopLoop(k *des.Kernel, contraflow bool) (l *Link, queued *int) {
	host := cpu.NewHost(k, "sun", 1)
	mpp := newMPP(k)
	l, a, b := MustNew(k, basicCfg(),
		EndpointConfig{Name: "sun", Host: host, SendStartup: 1e-4, SendPerWord: 1e-6},
		NodeConfig{Name: "mpp", Forward: mpp.NXHopAsync, PreSend: mpp.NXSendAsync})
	queued = new(int)
	b.Handle("x", func(msg Message) {
		if hop := msg.Arrived - (msg.Queued + l.WireTime(msg.Words)); hop > mpp.NXTime(msg.Words)+1e-9 {
			*queued++
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
		b.Stream("y", "y", math.MaxInt, 2048, nil)
	}
	return l, queued
}

// streamLoop is the Paragon→Sun contender's cycle: a Sun-side process
// asks for a burst of eight messages, which the node streams (with
// hops, each after its NX hop to the service node), reads them, and asks
// again. The stream record, like the relays and the hop
// records, is reused from one burst to the next.
func streamLoop(k *des.Kernel, hops bool) *Link {
	host := cpu.NewHost(k, "sun", 1)
	mpp := newMPP(k)
	bCfg := NodeConfig{Name: "mpp"}
	if hops {
		bCfg.PreSend = mpp.NXSendAsync
	}
	l, a, b := MustNew(k, basicCfg(),
		EndpointConfig{Name: "sun", Host: host, RecvStartup: 1e-4, RecvPerWord: 1e-6}, bCfg)
	k.Spawn("recv", func(p *des.Proc) {
		for {
			b.Stream("x", "x", 8, 512, nil)
			for i := 0; i < 8; i++ {
				a.Recv(p, "x")
			}
		}
	})
	return l
}

func TestSendAllocationFree(t *testing.T) {
	for name, tc := range map[string]struct {
		contraflow, hops, queues, discard, stream bool
	}{
		"direct":                {},
		"direct, discarded":     {discard: true},
		"2-HOPS, free fabric":   {hops: true},
		"2-HOPS, queued fabric": {hops: true, contraflow: true, queues: true},
		"streamed":              {stream: true},
		"streamed, 2-HOPS":      {stream: true, hops: true},
	} {
		k := des.New()
		defer k.Close()
		var l *Link
		queued := new(int)
		switch {
		case tc.stream:
			l = streamLoop(k, tc.hops)
		case tc.hops:
			l, queued = hopLoop(k, tc.contraflow)
		default:
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
// delivery to a handler) on the direct path.
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
