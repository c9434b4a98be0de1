package des

// QueueOnly makes every RunAhead on k decline, so each wait queues its
// wake and parks the way it did before run-ahead existed — the reference
// the differential tests compare the fast path against.
func (k *Kernel) QueueOnly() { k.queueOnly = true }

// Seq reports the last sequence number handed out: a wait that ran ahead
// must have consumed exactly the numbers its queued events would have.
func (k *Kernel) Seq() uint64 { return k.seq }
