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
	k   *des.Kernel
	cfg Config
	arm *des.Semaphore
	ops []*op // finished OpAsync records awaiting reuse

	busyTime float64
}

// New builds a disk from cfg.
func New(k *des.Kernel, cfg Config) (*Disk, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Disk{k: k, cfg: cfg, arm: des.NewSemaphore(k, 1)}, nil
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

// OpAsync is Op for a caller that is not a process: it takes Op's steps
// at the points of the event sequence where a process calling Op at the
// same instant would — the CPU charge as a cpu.Host.ComputeAsync job, a
// busy device as a place in the FCFS queue (des.Semaphore.AcquireAsync),
// the device time as a timed call where Delay queued a wake — and fires
// done inline in the event that releases the device, where Op would
// return. OpAsync returns at once; in steady state it allocates nothing.
func (d *Disk) OpAsync(words int, done des.Action) {
	t := d.OpTime(words)
	var o *op
	if n := len(d.ops); n > 0 {
		o, d.ops = d.ops[n-1], d.ops[:n-1]
	} else {
		o = &op{d: d}
	}
	o.t, o.done = t, done
	if d.cfg.Host != nil && d.cfg.CPUPerOp > 0 {
		o.step = opCharged
		d.cfg.Host.ComputeAsync(d.cfg.CPUPerOp, o)
		return
	}
	o.acquire()
}

// op is one asynchronous operation (Disk.OpAsync): a recycled
// timed-call record whose step names what the next Fire means.
type op struct {
	d    *Disk
	t    float64
	done des.Action
	step opStep
}

type opStep uint8

const (
	opCharged opStep = iota // the CPU charge is done: ask for the device
	opGranted               // a Release passed it the device
	opDone                  // the device time has elapsed
)

func (o *op) acquire() {
	o.step = opGranted
	if o.d.arm.AcquireAsync(o) {
		o.occupy()
	}
}

func (o *op) occupy() {
	o.step = opDone
	o.d.k.Call(o.t, o)
}

// Fire implements des.Action.
func (o *op) Fire() {
	switch o.step {
	case opCharged:
		o.acquire()
	case opGranted:
		o.occupy()
	case opDone:
		d, done := o.d, o.done
		d.busyTime += o.t
		d.arm.Release()
		o.done = nil
		d.ops = append(d.ops, o)
		done.Fire()
	}
}

// BusyTime reports cumulative device occupancy.
func (d *Disk) BusyTime() float64 { return d.busyTime }
