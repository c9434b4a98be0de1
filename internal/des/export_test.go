package des

// QueueOnly makes every RunAhead on k decline, so each wait queues its
// wake and parks the way it did before run-ahead existed — the reference
// the differential tests compare the fast path against.
func (k *Kernel) QueueOnly() { k.queueOnly = true }

// Seq reports the last sequence number handed out: a wait that ran ahead
// must have consumed exactly the numbers its queued events would have.
func (k *Kernel) Seq() uint64 { return k.seq }

// Time reports the virtual time at which the event is (or was) scheduled.
func (e *Event) Time() float64 { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return m.msgs.len() }

// TryRecv returns the oldest message without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) { return m.msgs.pop() }

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Waiting reports the number of queued acquirers.
func (s *Semaphore) Waiting() int { return s.queue.len() }
