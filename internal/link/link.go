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
// The link is asymmetric, as the paper's platform is, and says so in its
// types. The front-end is an Endpoint: it has a host CPU, so whoever
// sends or receives there is a process, which is what gets charged the
// data-format conversion — Send blocks it through conversion and wire,
// Recv drains a port's inbox and charges the receive side to the reader.
// The back-end is a Node: conversion there "is spread over many nodes"
// and costs the model nothing, so there is no process to charge and none
// exists. A Node's port is an arrival handler (Handle) that runs in the
// delivering simulation context and keeps nothing — a port nobody
// handles discards — and a Node sends with Stream: a burst of
// back-to-back messages carried by timed calls on a recycled record,
// through Send's steps at the points of the event sequence where a
// process looping on Send would take them. Contention generators, burst
// responders and the ping echo are therefore one process each, on the
// front-end, and traffic that is load rather than data is never queued.
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
	Sent    float64 // virtual time Send was called (a stream: the message begun)
	Queued  float64 // virtual time the wire was acquired
	Arrived float64 // virtual time of delivery: into the Endpoint's inbox, or to the Node's handler
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

// EndpointConfig describes the CPU-backed end of the link.
type EndpointConfig struct {
	Name string
	// Host is the CPU that pays conversion costs on this side, in the
	// process that sends or receives. Required — Send and Recv charge it
	// unconditionally; an end with no CPU to charge is a Node.
	Host *cpu.Host
	// SendStartup/SendPerWord are CPU work units charged to the sending
	// process (in Send) per outgoing message and per outgoing word.
	SendStartup, SendPerWord float64
	// RecvStartup/RecvPerWord are CPU work units charged to the
	// receiving process (in Recv) per incoming message and word — the
	// data-format conversion performed in the reader's context.
	RecvStartup, RecvPerWord float64
}

// NodeConfig describes the host-less end of the link (the MPP side,
// where conversion is spread over many nodes and is free).
type NodeConfig struct {
	Name string
	// PreSend, when non-nil, is the hop a streamed message makes before
	// it asks for the wire — the NX hop from a Paragon compute node to
	// the service node in 2-HOPS mode. It must call done, exactly once
	// and from simulation context, when the hop is over.
	PreSend func(words int, done func())
	// Forward, when non-nil, intercepts inbound delivery: it must
	// eventually call deliver, exactly once and from simulation context.
	// Used for the service-node → compute-node NX hop.
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

// Link is a half-duplex point-to-point wire between an Endpoint and a
// Node.
type Link struct {
	k    *des.Kernel
	cfg  Config
	wire *des.Semaphore

	busyTime   float64
	messages   int
	wordsMoved int

	fault       FaultFunc
	retransmits int
}

// Endpoint is the CPU-backed end of a link. Applications send from and
// receive at named ports so concurrent applications do not steal each
// other's messages; a port here is an inbox that Recv drains.
type Endpoint struct {
	link  *Link
	cfg   EndpointConfig
	peer  *Node
	ports []port // one to three, scanned by name
}

type port struct {
	name  string
	inbox *des.Mailbox[Message]
}

// Node is the host-less end of a link: it has no CPU to charge, so
// nothing on it is a process. A port here is an arrival handler, or
// nothing at all.
type Node struct {
	link     *Link
	cfg      NodeConfig
	peer     *Endpoint
	handlers []handler // one to three, scanned by port
	relays   []*relay  // delivered Forward relays awaiting reuse
	streams  []*stream // finished Stream records awaiting reuse
}

type handler struct {
	port string
	fn   func(Message)
}

// relay is one message on its way through the Node's Forward hook. The
// records are recycled and each binds its deliver func once, so a
// relayed message allocates nothing in steady state.
type relay struct {
	to      *Node
	msg     Message
	deliver func() // r.arrive, bound when the record is made
}

func (r *relay) arrive() {
	msg := r.msg
	r.msg = Message{}
	r.to.relays = append(r.to.relays, r)
	r.to.deliver(&msg)
}

// New creates a link between a CPU-backed end and a host-less one.
func New(k *des.Kernel, cfg Config, hostCfg EndpointConfig, nodeCfg NodeConfig) (*Link, *Endpoint, *Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, err
	}
	l := &Link{k: k, cfg: cfg, wire: des.NewSemaphore(k, 1)}
	e := &Endpoint{link: l, cfg: hostCfg}
	n := &Node{link: l, cfg: nodeCfg, peer: e}
	e.peer = n
	return l, e, n, nil
}

// MustNew is New but panics on config errors; for tests and fixtures.
func MustNew(k *des.Kernel, cfg Config, hostCfg EndpointConfig, nodeCfg NodeConfig) (*Link, *Endpoint, *Node) {
	l, e, n, err := New(k, cfg, hostCfg, nodeCfg)
	if err != nil {
		panic(err)
	}
	return l, e, n
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

// inbox returns (creating if needed) the mailbox of the given port. The
// scan is a pointer comparison per entry in the usual case: callers pass
// the same string every time, and equal strings that share their bytes
// compare without reading them.
func (e *Endpoint) inbox(name string) *des.Mailbox[Message] {
	for i := range e.ports {
		if e.ports[i].name == name {
			return e.ports[i].inbox
		}
	}
	box := des.NewMailbox[Message](e.link.k, e.cfg.Name+"/"+name)
	e.ports = append(e.ports, port{name, box})
	return box
}

// Send transfers words of payload to dstPort on the Node, blocking p
// through local conversion and wire occupancy. The returned message
// carries the sender-side timestamps and, unless the Node's Forward hook
// relays it, the arrival stamp.
func (e *Endpoint) Send(p *des.Proc, srcPort, dstPort string, words int, payload any) (msg Message) {
	if words < 0 {
		panic(fmt.Sprintf("link: negative message size %d", words))
	}
	l := e.link
	msg.Words, msg.SrcPort, msg.DstPort, msg.Sent, msg.Payload = words, srcPort, dstPort, p.Now(), payload

	// 1. Outbound data-format conversion on the local CPU.
	e.cfg.Host.Compute(p, e.cfg.SendStartup+e.cfg.SendPerWord*float64(words))

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

	// 3. Delivery to the Node, directly or through its Forward hook.
	e.peer.accept(&msg)
	return msg
}

// Recv blocks p until a message arrives at the given local port, then
// charges the receive-side data-format conversion to this endpoint's
// CPU in the caller's context (as a Unix read of an XDR stream does).
func (e *Endpoint) Recv(p *des.Proc, port string) Message {
	msg := e.inbox(port).Recv(p)
	e.cfg.Host.Compute(p, e.cfg.RecvStartup+e.cfg.RecvPerWord*float64(msg.Words))
	return msg
}

// deliver stamps the arrival time on *msg and queues a copy in its
// destination port's inbox.
func (e *Endpoint) deliver(msg *Message) {
	msg.Arrived = e.link.k.Now()
	e.inbox(msg.DstPort).Send(*msg)
}

// Handle gives the port an arrival handler: every message delivered to
// it from now on is stamped (Arrived) and passed to fn in the simulation
// context that delivers it — the sender's process, or the Forward
// relay's callback. fn must not block; to act over simulated time it
// streams, or spawns a process. A port with no handler discards what
// arrives, so traffic that is load rather than data needs no Handle,
// and fn is never nil.
//
// The exhibits cannot tell a handler from the receiver process it
// replaced, because a mailbox delivery with nobody parked on it
// schedules nothing: a discarded message removes no event, and a parked
// receiver's wake did nothing, for a message it ignored, but get popped.
func (n *Node) Handle(port string, fn func(Message)) {
	for i := range n.handlers {
		if n.handlers[i].port == port {
			n.handlers[i].fn = fn
			return
		}
	}
	n.handlers = append(n.handlers, handler{port, fn})
}

// accept takes a message off the wire at the Node: it is delivered to
// its port at once or — when the service node relays it — whenever the
// Forward hook calls deliver on a recycled copy, in which case the
// sender's *msg gets no arrival stamp.
func (n *Node) accept(msg *Message) {
	fwd := n.cfg.Forward
	if fwd == nil {
		n.deliver(msg)
		return
	}
	var r *relay
	if m := len(n.relays); m > 0 {
		r, n.relays = n.relays[m-1], n.relays[:m-1]
	} else {
		r = &relay{to: n}
		r.deliver = r.arrive
	}
	r.msg = *msg
	fwd(msg.Words, r.deliver)
}

// deliver stamps the arrival time on *msg and hands a copy to its
// destination port's handler, if it has one.
func (n *Node) deliver(msg *Message) {
	msg.Arrived = n.link.k.Now()
	for i := range n.handlers {
		if h := &n.handlers[i]; h.port == msg.DstPort {
			h.fn(*msg)
			return
		}
	}
}

// Stream sends count messages of words each, back to back, from srcPort
// to dstPort on the Endpoint, without a sending process. A count below
// one schedules nothing. Stream returns at once; in steady state it
// allocates nothing.
//
// A process sending from here would be charged nothing — send conversion
// is CPU work, and there is no CPU — so it would be switched into and
// out of once per message only to release the wire, deliver and
// re-acquire. The stream takes that process's steps at the same points
// of the event sequence instead, each wake replaced by a timed call
// (des.Kernel.Call) of the same delay, one sequence number each: the
// burst starts one zero-delay call from now, where the wake of a sender
// asked to send it would stand; the pre-wire hop (PreSend) requests the
// fabric at once, as mesh.NXSend does; a free wire is taken inline and a
// busy one queues the record FIFO among the parked senders
// (des.Semaphore.AcquireAsync), the Release that passes it the wire
// scheduling a zero-delay call where the wake was; occupancy and a lost
// attempt's backoff are Call(d) where Delay(d) was; and the next message
// begins in the event that delivered the last, as a loop's next Send
// would. Every event keeps its (time, sequence) place, and the only
// events gone are a parked sender's start-up wakes, which did nothing
// but park it. The fault decision (Link.attempted) and the
// Forward-or-deliver step exist once, shared with Send.
// TestStreamMatchesSendLoop holds a stream against a reference process
// taking those steps, == on every stamp.
func (n *Node) Stream(srcPort, dstPort string, count, words int, payload any) {
	if words < 0 {
		panic(fmt.Sprintf("link: negative message size %d", words))
	}
	if count < 1 {
		return
	}
	var s *stream
	if m := len(n.streams); m > 0 {
		s, n.streams = n.streams[m-1], n.streams[:m-1]
	} else {
		s = &stream{n: n}
		s.preDone = s.acquire
	}
	s.msg = Message{Words: words, SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	s.left, s.wt, s.step = count, n.link.WireTime(words), streamBegin
	n.link.k.Call(0, s)
}

// stream is a burst in flight (Node.Stream): what a process looping on
// Send would keep on its stack, advanced by timed calls. step names what
// the next Fire means.
type stream struct {
	n       *Node
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
	l := s.n.link
	s.msg.Sent = l.k.Now() // Queued and Arrived are stamped afresh before anyone reads them
	s.attempt, s.backoff = 1, l.cfg.PerPacket
	if pre := s.n.cfg.PreSend; pre != nil {
		pre(s.msg.Words, s.preDone)
		return
	}
	s.acquire()
}

func (s *stream) acquire() {
	s.step = streamGranted
	if s.n.link.wire.AcquireAsync(s) {
		s.occupy()
	}
}

func (s *stream) occupy() {
	l := s.n.link
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
	n := s.n
	if n.link.attempted(s.msg.Words, s.wt, s.attempt) {
		s.step = streamAcquire
		n.link.k.Call(s.backoff, s)
		s.backoff *= 2
		s.attempt++
		return
	}
	n.peer.deliver(&s.msg)
	if s.left--; s.left > 0 {
		s.begin()
		return
	}
	s.msg = Message{}
	n.streams = append(n.streams, s)
}
