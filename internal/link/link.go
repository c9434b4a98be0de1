// Package link models the private network connecting the front-end to
// the back-end machine: a half-duplex FCFS wire shared by all
// applications, with per-message data-format-conversion work charged to
// the endpoint CPUs.
//
// Two properties of the real Sun/Paragon Ethernet that the paper's model
// depends on are reproduced structurally:
//
//   - Packetization: messages are fragmented at the MTU, paying a
//     per-packet overhead, which makes the dedicated cost a
//     piecewise-linear function of message size with the knee at the MTU
//     (the paper's 1024-word threshold).
//   - CPU coupling: the conversion stage executes on the sending (and
//     optionally receiving) host CPU, so CPU-bound contenders slow
//     communication and communicating contenders slow computation —
//     exactly the cross-terms the slowdown model captures.
//
// A message is delivered to a named port of the peer endpoint. A port is
// an inbox that Recv drains, charging the receive-side conversion to the
// reader; or, on an endpoint with no host CPU to charge, it may be given
// an arrival handler (Endpoint.Handle) that runs in the delivering
// simulation context and keeps nothing — how contention generators and
// echo servers, whose traffic is load rather than data, receive without a
// receiver process or a queue that grows with simulated time.
//
// Sending is symmetric. Send blocks a process, which is what pays the
// send-side conversion on an endpoint with a host CPU. An endpoint
// without one has nothing to charge a sender for, so it can also Stream:
// a burst of back-to-back messages carried by timed calls on a recycled
// record, through the same steps at the same points of the event
// sequence as a process looping on Send — how burst responders, the
// Paragon side of a contender and the echo's reply send without a sender
// process.
package link

import (
	"fmt"
	"math"

	"contention/internal/cpu"
	"contention/internal/des"
)

// Message is one transfer across the link.
type Message struct {
	Words   int
	SrcPort string
	DstPort string
	Sent    float64 // virtual time Send was called
	Queued  float64 // virtual time the wire was acquired
	Arrived float64 // virtual time of delivery to the inbox
	Payload any
}

// Config describes the wire characteristics of a link.
type Config struct {
	Name string
	// MTU is the maximum packet payload in words; larger messages are
	// fragmented. Must be positive.
	MTU int
	// PerPacket is the wire overhead per packet in seconds (framing,
	// protocol acknowledgement, interrupt handling).
	PerPacket float64
	// Bandwidth is the raw wire bandwidth in words per second.
	Bandwidth float64
}

func (c Config) validate() error {
	if c.MTU <= 0 {
		return fmt.Errorf("link %q: MTU %d must be positive", c.Name, c.MTU)
	}
	if c.PerPacket < 0 || math.IsNaN(c.PerPacket) {
		return fmt.Errorf("link %q: invalid per-packet overhead %v", c.Name, c.PerPacket)
	}
	if c.Bandwidth <= 0 || math.IsNaN(c.Bandwidth) {
		return fmt.Errorf("link %q: bandwidth %v must be positive", c.Name, c.Bandwidth)
	}
	return nil
}

// EndpointConfig describes one side of the link.
type EndpointConfig struct {
	Name string
	// Host, when non-nil, is the CPU that pays conversion costs on this
	// side. A nil host (e.g. the MPP side, where conversion is spread
	// over many nodes) makes conversion free.
	Host *cpu.Host
	// SendStartup/SendPerWord are CPU work units charged on this side
	// per outgoing message and per outgoing word.
	SendStartup, SendPerWord float64
	// RecvStartup/RecvPerWord are CPU work units charged to the
	// receiving process (in Recv) per incoming message and word — the
	// data-format conversion performed in the reader's context.
	RecvStartup, RecvPerWord float64
	// PreSend, when non-nil, runs in the sender's process before the
	// wire is acquired — e.g. the NX hop from a Paragon compute node to
	// the service node in 2-HOPS mode.
	PreSend func(p *des.Proc, words int)
	// PreSendAsync is PreSend for Stream, which has no process to block:
	// it must call done, exactly once and from simulation context, when
	// the hop is over, having scheduled event for event what PreSend
	// does. An endpoint with a PreSend needs one to Stream.
	PreSendAsync func(words int, done func())
	// Forward, when non-nil, intercepts inbound delivery on this
	// endpoint: it must eventually call deliver, exactly once and from
	// simulation context. Used for the service-node → compute-node NX
	// hop.
	Forward func(words int, deliver func())
}

// maxTxAttempts bounds retransmission: after this many lost attempts the
// transfer is delivered anyway, so a pathological fault schedule cannot
// livelock a sender. Each lost attempt still pays full wire time plus a
// doubling retransmit backoff.
const maxTxAttempts = 16

// FaultFunc decides, per transmission attempt, whether the attempt is
// lost on the wire (dropped or corrupted beyond recovery). A lost
// attempt pays its full wire occupancy and is retransmitted after a
// paced backoff. Installed by the fault-injection subsystem; nil means a
// perfect wire.
type FaultFunc func(words int) bool

// Link is a half-duplex point-to-point wire between two endpoints.
type Link struct {
	k    *des.Kernel
	cfg  Config
	wire *des.Semaphore
	a, b *Endpoint

	busyTime   float64
	messages   int
	wordsMoved int

	fault       FaultFunc
	retransmits int
}

// Endpoint is one side of a link; applications send from and receive at
// named ports so concurrent applications do not steal each other's
// messages.
type Endpoint struct {
	link    *Link
	cfg     EndpointConfig
	peer    *Endpoint
	ports   []*port   // an endpoint has one to three; see port
	relays  []*relay  // delivered Forward relays awaiting reuse
	streams []*stream // finished Stream records awaiting reuse
}

// port is one named destination on an endpoint: an inbox that Recv
// drains or, once handled, a callback (nil discards) and nothing
// retained.
type port struct {
	name    string
	inbox   *des.Mailbox[Message]
	handled bool
	handler func(Message)
}

// relay is one message on its way through the receiving endpoint's
// Forward hook. The records are recycled and each binds its deliver
// func once, so a relayed message allocates nothing in steady state.
type relay struct {
	to      *Endpoint
	msg     Message
	deliver func() // r.arrive, bound when the record is made
}

func (r *relay) arrive() {
	msg := r.msg
	r.msg = Message{}
	r.to.relays = append(r.to.relays, r)
	r.to.deliver(&msg)
}

// New creates a link between two endpoints.
func New(k *des.Kernel, cfg Config, aCfg, bCfg EndpointConfig) (*Link, *Endpoint, *Endpoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, err
	}
	l := &Link{k: k, cfg: cfg, wire: des.NewSemaphore(k, 1)}
	l.a = &Endpoint{link: l, cfg: aCfg}
	l.b = &Endpoint{link: l, cfg: bCfg}
	l.a.peer, l.b.peer = l.b, l.a
	return l, l.a, l.b, nil
}

// MustNew is New but panics on config errors; for tests and fixtures.
func MustNew(k *des.Kernel, cfg Config, aCfg, bCfg EndpointConfig) (*Link, *Endpoint, *Endpoint) {
	l, a, b, err := New(k, cfg, aCfg, bCfg)
	if err != nil {
		panic(err)
	}
	return l, a, b
}

// Config returns the wire configuration.
func (l *Link) Config() Config { return l.cfg }

// WireTime returns the dedicated-mode wire occupancy for a message of
// the given size: ceil(words/MTU) packets of overhead plus payload time.
func (l *Link) WireTime(words int) float64 {
	if words <= 0 {
		return l.cfg.PerPacket
	}
	packets := (words + l.cfg.MTU - 1) / l.cfg.MTU
	return float64(packets)*l.cfg.PerPacket + float64(words)/l.cfg.Bandwidth
}

// BusyTime reports cumulative wire occupancy.
func (l *Link) BusyTime() float64 { return l.busyTime }

// Messages reports the number of messages fully transmitted.
func (l *Link) Messages() int { return l.messages }

// WordsMoved reports the total payload words transmitted.
func (l *Link) WordsMoved() int { return l.wordsMoved }

// SetFaultFunc installs (or, with nil, removes) the per-attempt fault
// decision. Call from simulation context only; the kernel serializes all
// senders, so no further synchronization is needed.
func (l *Link) SetFaultFunc(f FaultFunc) { l.fault = f }

// Retransmits reports the number of lost transmission attempts that were
// retransmitted.
func (l *Link) Retransmits() int { return l.retransmits }

// Utilization reports wire busy fraction since t=0.
func (l *Link) Utilization() float64 {
	if now := l.k.Now(); now > 0 {
		return l.busyTime / now
	}
	return 0
}

// Name reports the endpoint name.
func (e *Endpoint) Name() string { return e.cfg.Name }

// Port returns (creating if needed) the inbox for the given port name.
// A handled port's inbox stays empty.
func (e *Endpoint) Port(name string) *des.Mailbox[Message] { return e.port(name).inbox }

// port returns (creating if needed) the entry for the given port name.
// The scan is a pointer comparison per entry in the usual case: callers
// pass the same string every time, and equal strings that share their
// bytes compare without reading them.
func (e *Endpoint) port(name string) *port {
	for _, pt := range e.ports {
		if pt.name == name {
			return pt
		}
	}
	pt := &port{name: name, inbox: des.NewMailbox[Message](e.link.k, e.cfg.Name+"/"+name)}
	e.ports = append(e.ports, pt)
	return pt
}

// Handle replaces the port's inbox with fn: every message delivered to
// the port from now on is stamped (Arrived) and passed to fn in the
// simulation context that delivers it — the sender's process, or the
// Forward relay's callback — instead of being queued, and a nil fn
// discards it. fn must not block; to act over simulated time it spawns
// a process. Call Handle before traffic arrives: messages already
// queued stay in the inbox.
//
// Only an endpoint with no Host may handle a port. Receive-side
// conversion is CPU work charged in Recv, in the receiving process; a
// handler has no process to charge, so allowing one beside a Host would
// silently drop that cost from the model. Recv on a handled port, whose
// inbox nothing will ever reach, panics instead of parking forever.
func (e *Endpoint) Handle(port string, fn func(Message)) {
	if e.cfg.Host != nil {
		panic(fmt.Sprintf("link: Handle(%q) on endpoint %q, whose Host charges receive conversion in Recv", port, e.cfg.Name))
	}
	pt := e.port(port)
	pt.handled, pt.handler = true, fn
}

// Send transfers words of payload to dstPort on the peer endpoint,
// blocking p through local conversion and wire occupancy (receiver-side
// conversion is pipelined and charged asynchronously). The returned
// message carries the sender-side timestamps; the receiver's copy also
// has Arrived set.
func (e *Endpoint) Send(p *des.Proc, srcPort, dstPort string, words int, payload any) (msg Message) {
	if words < 0 {
		panic(fmt.Sprintf("link: negative message size %d", words))
	}
	l := e.link
	msg.Words, msg.SrcPort, msg.DstPort, msg.Sent, msg.Payload = words, srcPort, dstPort, p.Now(), payload

	// 0. Pre-wire hop on the sending side (e.g. NX to the service node).
	if e.cfg.PreSend != nil {
		e.cfg.PreSend(p, words)
	}

	// 1. Outbound data-format conversion on the local CPU (if any).
	if e.cfg.Host != nil {
		work := e.cfg.SendStartup + e.cfg.SendPerWord*float64(words)
		e.cfg.Host.Compute(p, work)
	}

	// 2. Exclusive wire occupancy, FCFS. A lost attempt (drop or
	// corruption injected by the fault subsystem) pays full wire time,
	// waits a doubling retransmit backoff off the wire, and retries.
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

	// 3. Delivery to the peer, directly or through its Forward hook.
	e.peer.accept(&msg)
	return msg
}

// attempted closes one transmission attempt: its wire time is accounted,
// the wire released, and the fault decision taken. It reports whether
// the attempt was lost and must be retransmitted after a backoff;
// otherwise the message counts as moved.
func (l *Link) attempted(words int, wt float64, attempt int) (lost bool) {
	l.busyTime += wt
	l.wire.Release()
	if l.fault != nil && attempt < maxTxAttempts && l.fault(words) {
		l.retransmits++
		return true
	}
	l.messages++
	l.wordsMoved += words
	return false
}

// accept takes a message off the wire at the receiving endpoint: it is
// delivered to its port at once or — when the service node relays it —
// whenever the Forward hook calls deliver on a recycled copy, in which
// case the sender's *msg gets no arrival stamp. Receive-side conversion
// is charged in Recv, in the receiving process's context.
func (e *Endpoint) accept(msg *Message) {
	fwd := e.cfg.Forward
	if fwd == nil {
		e.deliver(msg)
		return
	}
	var r *relay
	if n := len(e.relays); n > 0 {
		r, e.relays = e.relays[n-1], e.relays[:n-1]
	} else {
		r = &relay{to: e}
		r.deliver = r.arrive
	}
	r.msg = *msg
	fwd(msg.Words, r.deliver)
}

// Stream sends count messages of words each, back to back, from srcPort
// to dstPort on the peer endpoint, without a sending process: the burst
// starts one zero-delay event from now — where the wake of a sender
// asked to send it would stand — and every message then takes Send's
// steps at the points of the event sequence where a process looping on
// Send would take them: the pre-wire hop (PreSendAsync), the wire taken
// at once when free or queued FIFO among the parked senders, its
// occupancy, the fault decision with its doubling backoff, delivery. A
// count below one schedules nothing. Stream returns at once; in steady
// state it allocates nothing.
//
// Only an endpoint with no Host may stream. Send-side conversion is CPU
// work charged to the sending process; a stream has no process to
// charge, so allowing one beside a Host would silently drop that cost
// from the model.
func (e *Endpoint) Stream(srcPort, dstPort string, count, words int, payload any) {
	if e.cfg.Host != nil {
		panic(fmt.Sprintf("link: Stream on endpoint %q, whose Host charges send conversion to a process in Send", e.cfg.Name))
	}
	if e.cfg.PreSend != nil && e.cfg.PreSendAsync == nil {
		panic(fmt.Sprintf("link: Stream on endpoint %q, whose PreSend has no PreSendAsync counterpart", e.cfg.Name))
	}
	if words < 0 {
		panic(fmt.Sprintf("link: negative message size %d", words))
	}
	if count < 1 {
		return
	}
	var s *stream
	if n := len(e.streams); n > 0 {
		s, e.streams = e.streams[n-1], e.streams[:n-1]
	} else {
		s = &stream{e: e}
		s.preDone = s.acquire
	}
	s.msg = Message{Words: words, SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	s.left, s.wt, s.step = count, e.link.WireTime(words), streamBegin
	e.link.k.Call(0, s)
}

// stream is a burst in flight (Endpoint.Stream): what a process looping
// on Send would keep on its stack, advanced by timed calls. step names
// what the next Fire means.
type stream struct {
	e       *Endpoint
	msg     Message // the message in hand
	left    int     // messages still to send, this one included
	wt      float64 // wire time of one attempt
	attempt int
	backoff float64
	step    streamStep
	preDone func() // s.acquire, bound when the record is made
}

type streamStep uint8

const (
	streamBegin   streamStep = iota // start the next message
	streamAcquire                   // (re)take the wire: a backoff has elapsed
	streamGranted                   // a Release passed it the wire
	streamOnWire                    // the attempt's wire time has elapsed
)

// Fire implements des.Action.
func (s *stream) Fire() {
	switch s.step {
	case streamBegin:
		s.begin()
	case streamAcquire:
		s.acquire()
	case streamGranted:
		s.occupy()
	case streamOnWire:
		s.transmitted()
	}
}

// begin is Send's entry for the message in hand: the send stamp and the
// pre-wire hop, whose completion (or absence) leads to the wire.
func (s *stream) begin() {
	l := s.e.link
	s.msg.Sent = l.k.Now() // Queued and Arrived are stamped afresh before anyone reads them
	s.attempt, s.backoff = 1, l.cfg.PerPacket
	if pre := s.e.cfg.PreSendAsync; pre != nil {
		pre(s.msg.Words, s.preDone)
		return
	}
	s.acquire()
}

func (s *stream) acquire() {
	s.step = streamGranted
	if s.e.link.wire.AcquireAsync(s) {
		s.occupy()
	}
}

func (s *stream) occupy() {
	l := s.e.link
	if s.attempt == 1 {
		s.msg.Queued = l.k.Now()
	}
	s.step = streamOnWire
	l.k.Call(s.wt, s)
}

// transmitted ends an attempt: a lost one waits out its backoff off the
// wire and retries; a good one is delivered, and the next message, if
// any, begins in the same event, as a loop's next Send would.
func (s *stream) transmitted() {
	e := s.e
	if e.link.attempted(s.msg.Words, s.wt, s.attempt) {
		s.step = streamAcquire
		e.link.k.Call(s.backoff, s)
		s.backoff *= 2
		s.attempt++
		return
	}
	e.peer.accept(&s.msg)
	if s.left--; s.left > 0 {
		s.begin()
		return
	}
	s.msg = Message{}
	e.streams = append(e.streams, s)
}

// deliver stamps the arrival time on *msg and hands a copy to its
// destination port: the handler if the port has one, else the inbox.
func (e *Endpoint) deliver(msg *Message) {
	msg.Arrived = e.link.k.Now()
	switch pt := e.port(msg.DstPort); {
	case !pt.handled:
		pt.inbox.Send(*msg)
	case pt.handler != nil:
		pt.handler(*msg)
	}
}

// Recv blocks p until a message arrives at the given local port, then
// charges the receive-side data-format conversion to this endpoint's
// CPU in the caller's context (as a Unix read of an XDR stream does).
func (e *Endpoint) Recv(p *des.Proc, port string) (msg Message) {
	pt := e.port(port)
	if pt.handled {
		panic(fmt.Sprintf("link: Recv on port %q of endpoint %q, which Handle took over", port, e.cfg.Name))
	}
	msg = pt.inbox.Recv(p)
	if e.cfg.Host != nil {
		work := e.cfg.RecvStartup + e.cfg.RecvPerWord*float64(msg.Words)
		e.cfg.Host.Compute(p, work)
	}
	return msg
}
