// Package platform assembles the substrate packages (cpu, link, simd,
// mesh) into the two coupled heterogeneous systems the paper studies:
// the tightly coupled Sun/CM2 and the independent Sun/Paragon pair on a
// private Ethernet. Default parameters are synthetic but era-plausible;
// the contention model never sees them directly — it is calibrated
// against the running platform exactly as the paper calibrates against
// real hardware (see package calibrate), so the experiments test the
// model, not the constants.
package platform

import (
	"fmt"

	"contention/internal/cpu"
	"contention/internal/des"
	"contention/internal/disk"
	"contention/internal/link"
	"contention/internal/mesh"
	"contention/internal/simd"
)

// CM2Params configures a SunCM2 platform.
type CM2Params struct {
	// HostSpeed is the Sun CPU speed in work units per second. Work
	// units are defined as seconds of dedicated Sun CPU, so 1.0 is the
	// natural value.
	HostSpeed float64
	// XferStartup is the CPU work per transferred array (message):
	// the ground truth behind the model's α_sun.
	XferStartup float64
	// XferPerWord is the CPU work per transferred word: ground truth
	// behind 1/β_sun. CM2 transfers are element-by-element operations
	// driven entirely by the Sun CPU.
	XferPerWord float64
	// FIFODepth is the instruction pipeline depth between the Sun and
	// the CM2 sequencer.
	FIFODepth int
}

// DefaultCM2Params returns era-plausible parameters: ≈2 ms per-array
// startup and ≈250k words/s effective transfer rate.
func DefaultCM2Params() CM2Params {
	return CM2Params{
		HostSpeed:   1.0,
		XferStartup: 2e-3,
		XferPerWord: 4e-6,
		FIFODepth:   8,
	}
}

func (p CM2Params) validate() error {
	if p.HostSpeed <= 0 {
		return fmt.Errorf("platform: host speed %v must be positive", p.HostSpeed)
	}
	if p.XferStartup < 0 || p.XferPerWord < 0 {
		return fmt.Errorf("platform: negative transfer parameters %v/%v", p.XferStartup, p.XferPerWord)
	}
	if p.FIFODepth < 1 {
		return fmt.Errorf("platform: FIFO depth %d must be ≥ 1", p.FIFODepth)
	}
	return nil
}

// SunCM2 is the tightly coupled host/SIMD platform.
type SunCM2 struct {
	K       *des.Kernel
	Host    *cpu.Host
	Backend *simd.Backend
	Params  CM2Params
}

// NewSunCM2 builds a Sun/CM2 platform on the kernel.
func NewSunCM2(k *des.Kernel, params CM2Params) (*SunCM2, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return &SunCM2{
		K:       k,
		Host:    cpu.NewHost(k, "sun", params.HostSpeed),
		Backend: simd.NewBackend(k, "cm2"),
		Params:  params,
	}, nil
}

// Transfer moves one array of the given size between the Sun and the
// CM2 (either direction — the cost is symmetric CPU work), blocking p.
// Element-by-element copying is pure Sun CPU work, so contention on the
// Sun slows it by exactly the fair-share factor.
func (s *SunCM2) Transfer(p *des.Proc, words int) {
	if words < 0 {
		panic(fmt.Sprintf("platform: negative transfer size %d", words))
	}
	work := s.Params.XferStartup + s.Params.XferPerWord*float64(words)
	s.Host.Compute(p, work)
}

// TransferMessages moves n equal-sized arrays.
func (s *SunCM2) TransferMessages(p *des.Proc, n, words int) {
	for i := 0; i < n; i++ {
		s.Transfer(p, words)
	}
}

// SpawnCPUHogs starts n CPU-bound contender processes on the Sun that
// compute forever (until the simulation horizon).
func (s *SunCM2) SpawnCPUHogs(n int) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("hog%d", i)
		s.K.Spawn(name, func(p *des.Proc) {
			s.Host.Compute(p, 1e18)
		})
	}
}

// HopMode selects the Sun/Paragon communication path.
type HopMode int

const (
	// OneHop is direct TCP from the Sun to a Paragon compute node.
	OneHop HopMode = iota
	// TwoHops routes through the Paragon service node, which bridges
	// TCP to the NX fabric.
	TwoHops
)

// String implements fmt.Stringer.
func (m HopMode) String() string {
	switch m {
	case OneHop:
		return "1-HOP"
	case TwoHops:
		return "2-HOPS"
	default:
		return fmt.Sprintf("HopMode(%d)", int(m))
	}
}

// ParagonParams configures a SunParagon platform.
type ParagonParams struct {
	HostSpeed float64
	Link      link.Config
	// Conversion work on the Sun per message/word, each direction.
	SendStartup, SendPerWord float64
	RecvStartup, RecvPerWord float64
	Mesh                     mesh.Config
	Mode                     HopMode
	// Disk is the front-end's local disk (Host is filled in at
	// construction; used by I/O-bound contenders).
	Disk disk.Config
}

// DefaultParagonParams returns era-plausible parameters: a 10 Mbit/s
// private Ethernet (≈312k words/s) with a 1024-word MTU — the origin of
// the paper's 1024-word piecewise threshold — and XDR-style conversion
// costs on the Sun.
func DefaultParagonParams(mode HopMode) ParagonParams {
	return ParagonParams{
		HostSpeed: 1.0,
		Link: link.Config{
			Name:      "ether",
			MTU:       1024,
			PerPacket: 8e-4,
			Bandwidth: 312500,
		},
		// Conversion (XDR) cost grows per word faster than the startup,
		// so a contender's CPU share rises with its message size and
		// saturates near 1000 words — the j-dependence behind the
		// paper's delay^{i,j} tables. Per-word conversion on a Sun 4/60
		// is comparable to the 10 Mbit/s wire itself.
		SendStartup: 2e-4,
		SendPerWord: 3.2e-6,
		RecvStartup: 3e-4,
		RecvPerWord: 3.4e-6,
		Mesh: mesh.Config{
			Name:      "paragon",
			Nodes:     64,
			NodeSpeed: 8.0, // per node, relative to the Sun
			NXAlpha:   6e-5,
			NXBeta:    2.2e7,
		},
		Mode: mode,
		Disk: disk.Config{
			Name:     "sd0",
			Seek:     0.012,
			Rate:     1e6,
			CPUPerOp: 1e-4,
		},
	}
}

func (p ParagonParams) validate() error {
	if p.HostSpeed <= 0 {
		return fmt.Errorf("platform: host speed %v must be positive", p.HostSpeed)
	}
	if p.SendStartup < 0 || p.SendPerWord < 0 || p.RecvStartup < 0 || p.RecvPerWord < 0 {
		return fmt.Errorf("platform: negative conversion parameters")
	}
	if p.Mode != OneHop && p.Mode != TwoHops {
		return fmt.Errorf("platform: unknown hop mode %d", int(p.Mode))
	}
	return nil
}

// SunParagon is the independent host/MPP platform. The Sun's end of the
// link has the CPU, so its traffic is sent and received by processes;
// the Paragon's end has none: it streams and handles (see package link).
type SunParagon struct {
	K          *des.Kernel
	Host       *cpu.Host
	Link       *link.Link
	SunEnd     *link.Endpoint
	ParagonEnd *link.Node
	MPP        *mesh.Machine
	Disk       *disk.Disk
	Params     ParagonParams
}

// NewSunParagon builds a Sun/Paragon platform on the kernel.
func NewSunParagon(k *des.Kernel, params ParagonParams) (*SunParagon, error) {
	host, d, err := newFrontEnd(k, params)
	if err != nil {
		return nil, err
	}
	return newLeg(k, params, host, d, "sun", "paragon")
}

// newFrontEnd validates params and builds what every leg shares: the Sun
// CPU and its local disk.
func newFrontEnd(k *des.Kernel, params ParagonParams) (*cpu.Host, *disk.Disk, error) {
	if err := params.validate(); err != nil {
		return nil, nil, err
	}
	host := cpu.NewHost(k, "sun", params.HostSpeed)
	diskCfg := params.Disk
	diskCfg.Host = host
	d, err := disk.New(k, diskCfg)
	return host, d, err
}

// newLeg attaches one Paragon to the front-end: its mesh, the link
// between the two named ends and, in 2-HOPS mode, the service-node hops.
func newLeg(k *des.Kernel, params ParagonParams, host *cpu.Host, d *disk.Disk, sunName, paragonName string) (*SunParagon, error) {
	mpp, err := mesh.New(k, params.Mesh)
	if err != nil {
		return nil, err
	}
	sunCfg := link.EndpointConfig{
		Name:        sunName,
		Host:        host,
		SendStartup: params.SendStartup,
		SendPerWord: params.SendPerWord,
		RecvStartup: params.RecvStartup,
		RecvPerWord: params.RecvPerWord,
	}
	parCfg := link.NodeConfig{Name: paragonName}
	if params.Mode == TwoHops {
		// Inbound: service node forwards across the NX fabric.
		parCfg.Forward = mpp.NXHopAsync
		// Outbound: compute node hops to the service node first.
		parCfg.PreSend = mpp.NXSendAsync
	}
	l, sunEnd, parEnd, err := link.New(k, params.Link, sunCfg, parCfg)
	if err != nil {
		return nil, err
	}
	return &SunParagon{
		K:          k,
		Host:       host,
		Link:       l,
		SunEnd:     sunEnd,
		ParagonEnd: parEnd,
		MPP:        mpp,
		Disk:       d,
		Params:     params,
	}, nil
}

// SendToParagon transfers one message from the Sun to the Paragon on
// the given application port, blocking p through conversion and wire.
func (s *SunParagon) SendToParagon(p *des.Proc, port string, words int) {
	s.SunEnd.Send(p, port, port, words, nil)
}

// RecvOnSun blocks p until a message for port arrives at the Sun.
func (s *SunParagon) RecvOnSun(p *des.Proc, port string) link.Message {
	return s.SunEnd.Recv(p, port)
}

// SpawnCPUHogs starts n CPU-bound contender processes on the Sun.
func (s *SunParagon) SpawnCPUHogs(n int) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("hog%d", i)
		s.K.Spawn(name, func(p *des.Proc) {
			s.Host.Compute(p, 1e18)
		})
	}
}

// NewSunMultiParagon generalizes the platform to n back-end machines:
// n private links and MPPs attached to ONE shared front-end CPU and
// disk ("generalization of these results to more than two machines is
// straightforward" — §1). Each returned leg is a full SunParagon view
// sharing the host, so the existing workload generators and benchmarks
// run unchanged per leg.
func NewSunMultiParagon(k *des.Kernel, params ParagonParams, n int) ([]*SunParagon, error) {
	if n < 1 {
		return nil, fmt.Errorf("platform: leg count %d must be ≥ 1", n)
	}
	host, d, err := newFrontEnd(k, params)
	if err != nil {
		return nil, err
	}
	legs := make([]*SunParagon, 0, n)
	for i := 0; i < n; i++ {
		legParams := params
		legParams.Link.Name = fmt.Sprintf("%s%d", params.Link.Name, i)
		legParams.Mesh.Name = fmt.Sprintf("%s%d", params.Mesh.Name, i)
		leg, err := newLeg(k, legParams, host, d, fmt.Sprintf("sun/%d", i), fmt.Sprintf("paragon/%d", i))
		if err != nil {
			return nil, err
		}
		legs = append(legs, leg)
	}
	return legs, nil
}
