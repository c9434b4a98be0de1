package des

// Mailbox is an unbounded FIFO message queue between processes. Sends
// never block; receives park the caller until a message arrives.
type Mailbox[T any] struct {
	k     *Kernel
	name  string
	msgs  fifo[T]
	queue waitQueue
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel, name string) *Mailbox[T] {
	return &Mailbox[T]{k: k, name: name}
}

// Send enqueues v and wakes one parked receiver, if any. Send is safe to
// call from event callbacks as well as processes.
func (m *Mailbox[T]) Send(v T) {
	m.msgs.push(v)
	m.queue.wakeOne(m.k)
}

// Recv returns the oldest message, parking p until one is available.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.msgs.len() == 0 {
		m.queue.push(waiter{proc: p})
		p.Park()
	}
	v, _ := m.msgs.pop()
	return v
}

// Semaphore is a counting semaphore for processes and for the Actions
// that stand in for them (AcquireAsync); both wait in one FIFO.
type Semaphore struct {
	k     *Kernel
	avail int
	queue waitQueue
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	if n < 0 {
		panic("des: negative semaphore count")
	}
	return &Semaphore{k: k, avail: n}
}

// Acquire takes one permit, parking p until one is available. Waiters
// are served FIFO.
func (s *Semaphore) Acquire(p *Proc) {
	if !s.TryAcquire() {
		s.queue.push(waiter{proc: p})
		p.Park()
		// Ownership was transferred by Release; the permit is already ours.
	}
}

// AcquireAsync is Acquire for a caller that is not a process. It takes a
// permit and reports true when one is immediately available; otherwise
// it queues a, FIFO among the parked acquirers, and reports false: the
// Release that passes a the permit schedules a.Fire() as a zero-delay
// Call — the event, at the point of the sequence, that a parked
// process's wake would have been.
func (s *Semaphore) AcquireAsync(a Action) bool {
	if a == nil {
		panic("des: AcquireAsync with a nil Action")
	}
	if s.TryAcquire() {
		return true
	}
	s.queue.push(waiter{act: a})
	return false
}

// TryAcquire takes a permit if one is immediately available.
func (s *Semaphore) TryAcquire() bool {
	if s.avail > 0 && s.queue.len() == 0 {
		s.avail--
		return true
	}
	return false
}

// Release returns one permit, waking the oldest waiter if any. The
// permit passes directly to the waiter (no barging).
func (s *Semaphore) Release() {
	if !s.queue.wakeOne(s.k) {
		s.avail++
	}
}
