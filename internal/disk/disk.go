// Package disk models the front-end's local disk as an FCFS device
// with a per-operation seek and a transfer rate. It exists for the
// paper's I/O extension (§4: "we are currently extending our model to
// include … I/O operations") and for its §1 observation that load
// *characteristics* matter: an I/O-bound contender spends most of its
// time waiting on the device and therefore imposes far less CPU
// contention than a CPU-bound one — which the extended model captures
// through per-contender activity fractions.
package disk

import (
	"fmt"
	"math"

	"contention/internal/cpu"
	"contention/internal/des"
)

// Config describes the device.
type Config struct {
	Name string
	// Seek is the per-operation positioning time in seconds.
	Seek float64
	// Rate is the transfer rate in words per second.
	Rate float64
	// Host, when non-nil, is charged CPUPerOp of work per operation
	// (driver/interrupt overhead).
	Host *cpu.Host
	// CPUPerOp is the CPU work per operation on Host.
	CPUPerOp float64
}

func (c Config) validate() error {
	if c.Seek < 0 || math.IsNaN(c.Seek) {
		return fmt.Errorf("disk %q: invalid seek %v", c.Name, c.Seek)
	}
	if c.Rate <= 0 || math.IsNaN(c.Rate) {
		return fmt.Errorf("disk %q: rate %v must be positive", c.Name, c.Rate)
	}
	if c.CPUPerOp < 0 {
		return fmt.Errorf("disk %q: negative CPU per op %v", c.Name, c.CPUPerOp)
	}
	return nil
}

// Disk is the FCFS device.
type Disk struct {
	cfg Config
	arm *des.Semaphore

	busyTime float64
}

// New builds a disk from cfg.
func New(k *des.Kernel, cfg Config) (*Disk, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Disk{cfg: cfg, arm: des.NewSemaphore(k, 1)}, nil
}

// OpTime returns the dedicated duration of one operation.
func (d *Disk) OpTime(words int) float64 {
	if words < 0 {
		panic(fmt.Sprintf("disk: negative operation size %d", words))
	}
	return d.cfg.Seek + float64(words)/d.cfg.Rate
}

// Op performs one read/write of the given size, blocking p through the
// FCFS queue and the device time. The caller's CPU is idle meanwhile —
// the defining property of I/O-bound load.
func (d *Disk) Op(p *des.Proc, words int) {
	t := d.OpTime(words)
	if d.cfg.Host != nil && d.cfg.CPUPerOp > 0 {
		d.cfg.Host.Compute(p, d.cfg.CPUPerOp)
	}
	d.arm.Acquire(p)
	p.Delay(t)
	d.busyTime += t
	d.arm.Release()
}

// BusyTime reports cumulative device occupancy.
func (d *Disk) BusyTime() float64 { return d.busyTime }
